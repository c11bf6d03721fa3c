(** The five leak scenarios of Table I / Sec. IV, packaged as runnable apps.

    Every app moves the same kind of sensitive data along a different
    source → intermediate → sink path through JNI:

    - {!case1}: Java source → native intermediate → Java sink, where the
      tainted data rides the native method's {e return value}.  TaintDroid's
      black-box rule catches exactly this one.  (The native library is
      Thumb, exercising the second instruction set.)
    - {!case1'}: Java source → native stores it in a native buffer; a
      {e second} native call with clean parameters rebuilds a Java string
      from that buffer ([NewStringUTF]) and Java sends it.  TaintDroid
      misses it (steps 2'/2'' of Fig. 3b).
    - {!case2}: Java source → native sink ([send] from native code).
    - {!case3}: native "source" — native code pulls the data from Java
      through JNI ([CallStaticObjectMethod]), rebuilds it, and hands a {e
      new} object back for Java to send.
    - {!case4}: native pulls the data through JNI and leaks it itself
      ([sendto]) — never visible to any Java-context sink. *)

val case1 : Harness.app
val case1' : Harness.app
val case2 : Harness.app
val case3 : Harness.app
val case4 : Harness.app

val all : Harness.app list
(** In Table I order: 1, 1', 2, 3, 4. *)
