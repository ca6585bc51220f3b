type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations, Welford *)
  mutable min_v : float;
  mutable max_v : float;
  mutable samples : float list; (* reverse insertion order *)
  mutable sorted : float array option; (* quantile cache, cleared on add *)
}

let create () =
  {
    n = 0;
    mean = 0.;
    m2 = 0.;
    min_v = nan;
    max_v = nan;
    samples = [];
    sorted = None;
  }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if t.n = 1 then begin
    t.min_v <- x;
    t.max_v <- x
  end else begin
    if x < t.min_v then t.min_v <- x;
    if x > t.max_v then t.max_v <- x
  end;
  t.samples <- x :: t.samples;
  t.sorted <- None

let add_int t x = add t (float_of_int x)

let mean t = if t.n = 0 then nan else t.mean

let stddev t = if t.n < 2 then 0. else sqrt (t.m2 /. float_of_int (t.n - 1))

let to_list t = List.rev t.samples

let sorted_samples t =
  match t.sorted with
  | Some arr -> arr
  | None ->
    let arr = Array.of_list t.samples in
    Array.sort Float.compare arr;
    t.sorted <- Some arr;
    arr

let quantile t q =
  if t.n = 0 then nan
  else begin
    let arr = sorted_samples t in
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let pos = q *. float_of_int (t.n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = int_of_float (Float.ceil pos) in
    if lo = hi then arr.(lo)
    else begin
      let frac = pos -. float_of_int lo in
      (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
    end
  end

let median t = quantile t 0.5
