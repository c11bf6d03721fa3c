(** Multilevel hooking.

    "We propose a multilevel hooking technique to assure that the
    instrumentation of dvmCallMethod* and dvmInterpret is triggered only by
    the native codes under examination.  Its basic idea is to define and
    check a sequence of preconditions before hooking certain methods"
    (paper, Sec. V-B and Fig. 5).

    A chain is a call path, e.g.
    [CallVoidMethodA → dvmCallMethodA → dvmInterpret].  The tracker watches
    branch events and reports when level k is entered — meaning every
    condition T1..Tk holds: the path was entered {e from third-party native
    code} and followed exactly — and when levels unwind on return edges.
    Branches into chain functions from anywhere else (e.g. the framework
    itself calling dvmInterpret) match no condition and are ignored, which
    is the whole point: no instrumentation cost off the interesting path. *)

type action =
  | Enter of int  (** condition T(k+1) just became true; 0-based level *)
  | Leave of int  (** the level's function returned *)

type t

val create : chain:(int -> bool) list -> in_native:(int -> bool) -> t
(** [chain] is one membership test per level, outermost first — e.g.
    level 0 accepts the entry address of any [Call*Method*] wrapper,
    level 1 any [dvmCallMethod*], level 2 [dvmInterpret].  [in_native]
    classifies the origin of the first branch (T1's "Ifrom is within the
    native code"). *)

val exact : int -> int -> bool
(** [exact addr] is a chain test matching exactly [addr]. *)

val observe : t -> from_:int -> to_:int -> action option
(** Feed a branch event; returns what changed, if anything. *)

val level : t -> int
(** Current depth: 0 = not on the path, k = conditions T1..Tk hold. *)

val checks : t -> int
(** Number of branch events inspected (ablation A2 accounting). *)
