type t = { write : Event.stamped -> unit; close : unit -> unit }

let null = { write = (fun _ -> ()); close = (fun () -> ()) }

module Collect = struct
  type buffer = { mutable events : Event.stamped list; mutable count : int }

  let create () = { events = []; count = 0 }

  let write buf ev =
    buf.events <- ev :: buf.events;
    buf.count <- buf.count + 1

  let length buf = buf.count
  let contents buf = List.rev buf.events
end

let collector () =
  let buf = Collect.create () in
  (buf, { write = Collect.write buf; close = (fun () -> ()) })

let jsonl_file path =
  let oc = open_out path in
  {
    write =
      (fun ev ->
        output_string oc (Codec.to_line ev);
        output_char oc '\n');
    close = (fun () -> close_out oc);
  }
