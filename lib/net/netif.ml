(* Network-interface abstraction: anything that can transmit a framed
   packet and deliver received ones upward. Implementations: the e1000
   device model (Nic) and URPC point-to-point links (Stack.connect_urpc).
   A frame is lost only where the machine's fault injector says so (the
   URPC channels under a link consult it); the interface itself delivers
   everything. *)

type t = {
  ifname : string;
  mac : int;
  send : Pbuf.t -> unit;
  mutable rx : Pbuf.t -> unit;  (* installed by the stack *)
}

let create ~name ~mac ~send = { ifname = name; mac; send; rx = (fun _ -> ()) }

let name t = t.ifname
let mac t = t.mac
let transmit t p = t.send p
let deliver t p = t.rx p
let set_rx t f = t.rx <- f
