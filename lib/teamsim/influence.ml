open Adpm_interval
open Adpm_expr
open Adpm_csp

(* Tables live as long as their scenario. In the OCaml heap every
   long-lived word raises the major heap's steady size by several (each
   major cycle runs longer over a larger heap, so more garbage floats),
   which showed up as peak RSS; off-heap int32 arrays cost only their
   bytes. *)
type ints = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  n_props : int;
  n_constraints : int;
  first : ints;
      (* prop id -> offset of its first entry; [first.{n_props}] = total *)
  entries : ints;
      (* per property, ascending: [cid lsl 2] lor bit 0 (some route helps
         upward) lor bit 1 (some route helps downward) *)
  endpoint : ints;  (* 2*pid: upward route count, 2*pid+1: downward *)
  (* the constraint sides and tool models as point programs over prop
     ids: program [2*cid] is a constraint's lhs, [2*cid+1] its rhs, and
     the models follow *)
  programs : Point.t;
  model : ints;  (* prop id -> its model's program, or -1 *)
  hull : floats;  (* 2*pid, 2*pid+1: the initial range's hull *)
}

let ints a =
  Bigarray.Array1.init Bigarray.int32 Bigarray.c_layout (Array.length a)
    (fun i -> Int32.of_int a.(i))

let get (a : ints) i = Int32.to_int a.{i}

let up_bit = 1
let down_bit = 2

(* Direction (as seen from the model input) in which moving it helps the
   constraint, when the constraint's argument is a model output. *)
let compose outer inner =
  match (outer, inner) with
  | `None, _ -> `None
  | _, (Monotone.Constant | Monotone.Unknown) -> `None
  | `Up, Monotone.Increasing | `Down, Monotone.Decreasing -> `Up
  | `Up, Monotone.Decreasing | `Down, Monotone.Increasing -> `Down

let analyse ~models net =
  let n_props = Network.prop_count net in
  let env name =
    if not (Network.mem_prop net name) then raise Not_found;
    match Domain.hull (Network.initial_domain net name) with
    | Some iv -> iv
    | None -> raise Not_found
  in
  (* a model's direction in one input is the same for every constraint
     routing through it *)
  let inner_memo : (string * string, Monotone.direction) Hashtbl.t =
    Hashtbl.create 64
  in
  let inner output model x =
    match Hashtbl.find_opt inner_memo (output, x) with
    | Some dir -> dir
    | None ->
      let dir =
        try Monotone.direction ~env model x with Not_found -> Monotone.Unknown
      in
      Hashtbl.add inner_memo (output, x) dir;
      dir
  in
  let touch = Array.make n_props [] in
  let endpoint = Array.make (2 * n_props) 0 in
  Array.iter
    (fun c ->
      (* one route per argument: the argument itself, and through its
         model every input the model mentions *)
      let routes =
        List.map
          (fun arg ->
            let model =
              Option.map
                (fun e -> (e, Expr.vars e))
                (List.assoc_opt arg models)
            in
            (arg, Network.helps_direction net c arg, model))
          (Constr.args c)
      in
      let reached =
        List.sort_uniq String.compare
          (List.concat_map
             (fun (arg, _, model) ->
               arg :: (match model with Some (_, vs) -> vs | None -> []))
             routes)
      in
      List.iter
        (fun x ->
          if Network.mem_prop net x then begin
            let up, down =
              List.fold_left
                (fun (up, down) (arg, dir, model) ->
                  let route =
                    if String.equal arg x then dir
                    else
                      match model with
                      | Some (e, vs) when List.mem x vs ->
                        compose dir (inner arg e x)
                      | Some _ | None -> `None
                  in
                  match route with
                  | `Up -> (up + 1, down)
                  | `Down -> (up, down + 1)
                  | `None -> (up, down))
                (0, 0) routes
            in
            let pid = Network.prop_id net x in
            let bits =
              (if up > 0 then up_bit else 0) lor if down > 0 then down_bit else 0
            in
            touch.(pid) <- (c.Constr.id, bits) :: touch.(pid);
            endpoint.(2 * pid) <- endpoint.(2 * pid) + up;
            endpoint.((2 * pid) + 1) <- endpoint.((2 * pid) + 1) + down
          end)
        reached)
    (Network.constraint_array net);
  let first = Array.make (n_props + 1) 0 in
  Array.iteri (fun pid l -> first.(pid + 1) <- first.(pid) + List.length l) touch;
  let entries = Array.make first.(n_props) 0 in
  Array.iteri
    (fun pid l ->
      (* lists are built newest first: fill each range from its end *)
      List.iteri
        (fun i (cid, bits) ->
          entries.(first.(pid + 1) - 1 - i) <- (cid lsl 2) lor bits)
        l)
    touch;
  let var_id name =
    if Network.mem_prop net name then Network.prop_id net name else -1
  in
  let constraints = Network.constraint_array net in
  let nc = Array.length constraints in
  let model = Array.make n_props (-1) and derived = ref [] in
  for pid = n_props - 1 downto 0 do
    match List.assoc_opt (Network.prop_by_id net pid).Network.p_name models with
    | Some e -> derived := (pid, e) :: !derived
    | None -> ()
  done;
  List.iteri (fun k (pid, _) -> model.(pid) <- (2 * nc) + k) !derived;
  let programs =
    Point.compile ~var_id
      (Array.concat
         [
           Array.init (2 * nc) (fun k ->
               let c = constraints.(k / 2) in
               if k mod 2 = 0 then c.Constr.lhs else c.Constr.rhs);
           Array.of_list (List.map snd !derived);
         ])
  in
  (* no hull: infinite bounds, which leave a finite tool output as is *)
  let hull =
    Array.init (2 * n_props) (fun k ->
        match Domain.hull (Network.prop_by_id net (k / 2)).Network.p_initial with
        | Some iv -> if k mod 2 = 0 then Interval.lo iv else Interval.hi iv
        | None -> if k mod 2 = 0 then neg_infinity else infinity)
  in
  {
    n_props;
    n_constraints = Network.constraint_count net;
    first = ints first;
    entries = ints entries;
    endpoint = ints endpoint;
    programs;
    model = ints model;
    hull = Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout hull;
  }

let prop_count t = t.n_props
let constraint_count t = t.n_constraints
let programs t = t.programs
let model t pid = get t.model pid
let is_derived t pid = get t.model pid >= 0

let clamp t pid raw =
  Float.min t.hull.{(2 * pid) + 1} (Float.max t.hull.{2 * pid} raw)

let lhs cid = 2 * cid
let rhs cid = (2 * cid) + 1

let reach_count t pid = get t.first (pid + 1) - get t.first pid

let touching t pid =
  let base = get t.first pid in
  Array.init (reach_count t pid) (fun i -> get t.entries (base + i) lsr 2)

let touches t ~cid pid =
  let rec search lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let x = get t.entries mid lsr 2 in
    x = cid || if x < cid then search (mid + 1) hi else search lo mid
  in
  search (get t.first pid) (get t.first (pid + 1))

let repair_votes t pid ~violated =
  let up = ref 0 and down = ref 0 and alpha = ref 0 in
  for i = get t.first pid to get t.first (pid + 1) - 1 do
    let e = get t.entries i in
    if violated.(e lsr 2) then begin
      incr alpha;
      if e land up_bit <> 0 then incr up;
      if e land down_bit <> 0 then incr down
    end
  done;
  (!up, !down, !alpha)

let motivated t pid ~violated =
  let acc = ref [] in
  for i = get t.first (pid + 1) - 1 downto get t.first pid do
    let cid = get t.entries i lsr 2 in
    if violated.(cid) then acc := cid :: !acc
  done;
  !acc

let endpoint_votes t pid =
  (get t.endpoint (2 * pid), get t.endpoint ((2 * pid) + 1))
