(** The DroidScope baseline.

    DroidScope "tracks information flow at the instruction level by
    enhancing QEMU and it may incur 11 to 34 times slowdown.  Moreover, it
    reconstructs OS level and DVM level information only from the machine
    instructions without exploiting JNI's semantic information" (paper,
    Secs. I-II).  Two consequences this module reproduces:

    - {b cost}: every instruction in the whole system — including the ones
      "executed by" the Dalvik interpreter for each bytecode — pays for
      virtual-machine introspection plus an instruction-level taint
      operation.  Nothing is summarised, nothing is filtered.
    - {b detection}: "no new information flows than TaintDroid were
      reported" — the source/sink model is TaintDroid's, so the Table I
      detection matrix matches TaintDroid's row. *)

val attach : Ndroid_runtime.Device.t -> unit
(** Instrument a device: every machine instruction pays 90 units of
    introspection work; every DVM bytecode models 3 dispatch-and-execute
    instructions, each paying the per-instruction cost; a library call
    models a 110-instruction body, which DroidScope instruments in full
    where NDroid substitutes a summary. *)
