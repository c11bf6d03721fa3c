(* Direct-mapped decode cache: fetch address -> decoded instruction.

   Slots are indexed by the halfword-aligned fetch address, so consecutive
   ARM (4-byte) and Thumb (2-byte) instructions land in distinct slots and a
   lookup is two array reads — no hashing, no probing.

   256 slots keep both arrays in the minor heap (an array of at most
   [Max_young_wosize] = 256 words is allocated young), so a machine that
   never runs a native instruction pays a few hundred minor words for its
   cache and nothing in the major heap.  The CF-Bench loops fit: a warm
   pass misses 74 of its 185,996 fetches, where 8,192 slots missed none. *)

let slot_bits = 8
let slots = 1 lsl slot_bits

type t = {
  addrs : int array;  (* -1 = empty slot *)
  entries : (Insn.t * int) array;
  mutable lo : int;  (* bounds of every address stored since [clear] *)
  mutable hi : int;
  mutable hits : int;
  mutable misses : int;
}

let dummy_entry = (Insn.bx_lr, 4)

let create () =
  { addrs = Array.make slots (-1);
    entries = Array.make slots dummy_entry;
    lo = max_int;
    hi = min_int;
    hits = 0;
    misses = 0 }

let slot addr = (addr lsr 1) land (slots - 1)

let probe c addr =
  let i = slot addr in
  if c.addrs.(i) = addr then begin
    c.hits <- c.hits + 1;
    true
  end
  else begin
    c.misses <- c.misses + 1;
    false
  end

let cached c addr = c.entries.(slot addr)

let find c addr = if probe c addr then Some (cached c addr) else None

let store c addr entry =
  let i = slot addr in
  c.addrs.(i) <- addr;
  c.entries.(i) <- entry;
  if addr < c.lo then c.lo <- addr;
  if addr > c.hi then c.hi <- addr

(* An instruction is at most 4 bytes and starts on a halfword, so the ones
   a write of [len] bytes at [addr] can touch start between [addr - 2]
   (rounded down to a halfword) and [addr + len - 1].  A store into a
   library's data words past its cached code (CF-Bench's Native Memory
   Write, every iteration) is answered by the bounds. *)
let evict c ~addr ~len =
  let first = (addr - 2) land lnot 1 and last = addr + len - 1 in
  if first <= c.hi && last >= c.lo then
    if len >= 2 * slots then Array.fill c.addrs 0 slots (-1)
    else begin
      let a = ref first in
      while !a <= last do
        let i = slot !a in
        if c.addrs.(i) = !a then c.addrs.(i) <- -1;
        a := !a + 2
      done
    end

let hits c = c.hits
let misses c = c.misses
