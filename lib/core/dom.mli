(** Domains — the multikernel's processes (§4.5, §4.8).

    A domain is a collection of dispatchers (one per core it spans) and a
    virtual address space shared across them.
    Create them with {!Os.spawn_domain}, which also announces the domain to
    every spanned OS node through the monitors. *)

type t

val create :
  domid:Types.domid ->
  name:string ->
  cores:int list ->
  vspace:Vspace.t ->
  disps:(int * Dispatcher.t) list ->
  t

val domid : t -> Types.domid
val name : t -> string
val cores : t -> int list
val vspace : t -> Vspace.t

val dispatcher_on : t -> int -> Dispatcher.t
(** The domain's dispatcher on a given core; raises [Invalid_argument] if
    the domain does not span it. *)

val dispatchers : t -> Dispatcher.t list
val spans : t -> int -> bool
