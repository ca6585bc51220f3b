(* Binary min-heap over (time, seq). The seq tie-break makes the pop order
   a pure function of the push sequence: two entries never compare equal,
   so sift order cannot depend on anything but the keys. *)

type 'a entry = { at : int; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let grow t entry =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let heap = Array.make (max 8 (2 * cap)) entry in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end

let push t ~time payload =
  if time < 0 then invalid_arg "Event_queue.push: negative time";
  let entry = { at = time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  grow t entry;
  let i = ref t.size in
  t.size <- t.size + 1;
  t.heap.(!i) <- entry;
  (* sift up *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t.heap.(!i) t.heap.(parent) then begin
      let tmp = t.heap.(parent) in
      t.heap.(parent) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
        if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = t.heap.(!smallest) in
          t.heap.(!smallest) <- t.heap.(!i);
          t.heap.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.at, top.payload)
  end

let clear t = t.size <- 0
