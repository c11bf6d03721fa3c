(** Taint labels.

    TaintDroid represents taint as a 32-bit integer in which each bit stands
    for one category of sensitive information; combining taints is the union
    of the bit sets (paper, Sec. II-B).  NDroid re-uses the exact same format
    so that both systems can exchange tags ("let the taints added by NDroid
    follow TaintDroid's format", Sec. V-A).

    The predefined labels below use TaintDroid's published constants, which
    is why the values logged in the paper ([0x202] for contacts+SMS, [0x2]
    for contacts, [0x1602] for contacts+SMS+IMEI+ICCID) show up verbatim in
    our experiment output. *)

type t
(** A taint tag: a set of sensitive-information categories. *)

val clear : t
(** The empty tag ([TAINT_CLEAR] in TaintDroid). *)

val is_clear : t -> bool
(** [is_clear t] is [true] iff [t] carries no taint at all. *)

val is_tainted : t -> bool
(** [is_tainted t] is [not (is_clear t)]. *)

val union : t -> t -> t
(** [union a b] combines two tags; this is the "OR" operation used by every
    propagation rule in Table V. *)

val ( ||| ) : t -> t -> t
(** Infix alias for {!union}. *)

val subset : t -> t -> bool
(** [subset a b] is [true] iff every category in [a] is also in [b]. *)

val equal : t -> t -> bool

val of_bits : int -> t
(** [of_bits n] makes a tag from a raw 32-bit value, e.g. from a log. *)

val to_bits : t -> int
(** Raw 32-bit value of the tag. *)

(** {1 TaintDroid's predefined categories} *)

(** The tags are, in bit order: [location] 0x1 (last known location),
    [contacts] 0x2 (address book), [mic] 0x4, [phone_number] 0x8,
    [location_gps] 0x10, [location_net] 0x20, [location_last] 0x40,
    [camera] 0x80, [accelerometer] 0x100, [sms] 0x200, [imei] 0x400,
    [imsi] 0x800, [iccid] 0x1000 (SIM card identifier), [device_sn] 0x2000,
    [account] 0x4000, [history] 0x8000. *)

val location : t

val contacts : t
val phone_number : t
val location_gps : t
val sms : t
val imei : t
val imsi : t
val iccid : t
val device_sn : t

val categories : t -> string list
(** [categories t] names the categories present in [t]; unknown bits are
    rendered as ["bit<i>"]. *)

val pp : Format.formatter -> t -> unit
(** Prints as the hexadecimal tag value, e.g. [0x202]. *)

val pp_verbose : Format.formatter -> t -> unit
(** Prints as the tag value followed by category names,
    e.g. [0x202(contacts|sms)]. *)

val to_string : t -> string
(** [to_string t] is {!pp} rendered to a string. *)
