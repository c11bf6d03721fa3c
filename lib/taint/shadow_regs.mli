(** Shadow registers.

    "NDroid maintains shadow registers to store the related registers'
    taints" (paper, Sec. V-E).  One taint tag per CPU register; register 15
    (PC) and 13 (SP) are tracked too, since LDM/STM rules in Table V involve
    the base register's taint. *)

type t

val create : int -> t
(** [create n] makes a bank of [n] shadow registers, all clear. *)

val get : t -> int -> Taint.t
(** [get s i] is the taint of register [i].  @raise Invalid_argument if [i]
    is out of range. *)

val set : t -> int -> Taint.t -> unit
(** Replace register [i]'s taint. *)

val add : t -> int -> Taint.t -> unit
(** Union a tag into register [i]'s taint. *)

val clear_all : t -> unit
(** Reset every register to {!Taint.clear}; done when entering a fresh
    native invocation so a previous call's taints cannot bleed through. *)

val any_tainted : t -> bool
(** [true] iff some register carries taint. *)

val snapshot : t -> Taint.t array
(** Copy of the current bank, for saving across nested calls. *)

val restore : t -> Taint.t array -> unit
(** Restore a bank saved with {!snapshot}.
    @raise Invalid_argument on size mismatch. *)
