type 'a t = {
  queue : 'a Event_queue.t;
  mutable clock : int;
  mutable halted : bool;
}

let create () = { queue = Event_queue.create (); clock = 0; halted = false }

let now t = t.clock

let schedule t ~delay payload =
  if delay < 0 then invalid_arg "Scheduler.schedule: negative delay";
  if not t.halted then Event_queue.push t.queue ~time:(t.clock + delay) payload

let halt t =
  t.halted <- true;
  Event_queue.clear t.queue

let step t handler =
  if t.halted then false
  else
    match Event_queue.pop t.queue with
    | None -> false
    | Some (at, payload) ->
      t.clock <- at;
      handler payload;
      true

let run t handler = while step t handler do () done
