(* Page-based shadow taint memory.

   The map mirrors the guest memory's page-granular layout: a hashtable of
   lazily allocated 4 KiB pages of taint tags.  Each page carries a [live]
   summary (count of tainted bytes) and the map carries a [total], so the
   dominant cases — lookups against a fully clear map, range operations over
   clear pages — cost O(1) / O(pages) instead of O(bytes) and never allocate.
   A one-entry last-touched-page cache turns the per-byte hashtable hit of
   the old per-byte map into an array access for the common
   same-page-as-last-time access pattern of the trace loop. *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type page = {
  data : Taint.t array;
  mutable live : int;  (* tainted bytes in this page; 0 = page is all clear *)
}

type t = {
  pages : (int, page) Hashtbl.t;
  mutable total : int;  (* tainted bytes across all pages *)
  mutable last_key : int;
  mutable last_page : page;  (* valid iff [last_key <> no_key] *)
}

let no_key = min_int
let dummy_page = { data = [||]; live = 0 }

let create () =
  { pages = Hashtbl.create 64;
    total = 0;
    last_key = no_key;
    last_page = dummy_page }

(* Page lookup without creation; [dummy_page] stands for "absent" so the hot
   path stays allocation-free. *)
let find_page m key =
  if m.last_key = key then m.last_page
  else
    match Hashtbl.find_opt m.pages key with
    | Some p ->
      m.last_key <- key;
      m.last_page <- p;
      p
    | None -> dummy_page

let ensure_page m key =
  if m.last_key = key then m.last_page
  else
    match Hashtbl.find_opt m.pages key with
    | Some p ->
      m.last_key <- key;
      m.last_page <- p;
      p
    | None ->
      let p = { data = Array.make page_size Taint.clear; live = 0 } in
      Hashtbl.replace m.pages key p;
      m.last_key <- key;
      m.last_page <- p;
      p

(* Write one byte of an existing page, maintaining both summaries. *)
let set_in_page m p off tag =
  let old = p.data.(off) in
  if not (Taint.equal old tag) then begin
    p.data.(off) <- tag;
    if Taint.is_clear old then begin
      p.live <- p.live + 1;
      m.total <- m.total + 1
    end
    else if Taint.is_clear tag then begin
      p.live <- p.live - 1;
      m.total <- m.total - 1
    end
  end

let get m addr =
  if m.total = 0 then Taint.clear
  else
    let p = find_page m (addr asr page_bits) in
    if p.live = 0 then Taint.clear else p.data.(addr land page_mask)

let set m addr tag =
  if Taint.is_clear tag then begin
    if m.total > 0 then
      let p = find_page m (addr asr page_bits) in
      if p.live > 0 then set_in_page m p (addr land page_mask) tag
  end
  else set_in_page m (ensure_page m (addr asr page_bits)) (addr land page_mask) tag

let add m addr tag =
  if Taint.is_tainted tag then
    let p = ensure_page m (addr asr page_bits) in
    let off = addr land page_mask in
    set_in_page m p off (Taint.union p.data.(off) tag)

(* Walk [addr, addr+n) page chunk by page chunk. *)
let iter_chunks addr n f =
  let pos = ref addr and remaining = ref n in
  while !remaining > 0 do
    let off = !pos land page_mask in
    let chunk = min !remaining (page_size - off) in
    f (!pos asr page_bits) off chunk;
    pos := !pos + chunk;
    remaining := !remaining - chunk
  done

(* The range operations special-case a range that stays within one page —
   the overwhelmingly common shape (1/2/4/8-byte accesses from the trace
   loop) — as straight-line code: no closure is built and the accumulator
   ref stays a local the compiler keeps in a register. *)

let get_range m addr n =
  if m.total = 0 || n <= 0 then Taint.clear
  else begin
    let off = addr land page_mask in
    if off + n <= page_size then begin
      let p = find_page m (addr asr page_bits) in
      if p.live = 0 then Taint.clear
      else begin
        let acc = ref Taint.clear in
        for i = off to off + n - 1 do
          acc := Taint.union !acc p.data.(i)
        done;
        !acc
      end
    end
    else begin
      let acc = ref Taint.clear in
      iter_chunks addr n (fun key off chunk ->
          let p = find_page m key in
          if p.live > 0 then
            for i = off to off + chunk - 1 do
              acc := Taint.union !acc p.data.(i)
            done);
      !acc
    end
  end

let clear_in_page m p off chunk =
  if p.live > 0 then
    for i = off to off + chunk - 1 do
      if Taint.is_tainted p.data.(i) then begin
        p.data.(i) <- Taint.clear;
        p.live <- p.live - 1;
        m.total <- m.total - 1
      end
    done

let clear_range m addr n =
  if m.total > 0 && n > 0 then begin
    let off = addr land page_mask in
    if off + n <= page_size then
      clear_in_page m (find_page m (addr asr page_bits)) off n
    else
      iter_chunks addr n (fun key off chunk ->
          clear_in_page m (find_page m key) off chunk)
  end

let set_range m addr n tag =
  if Taint.is_clear tag then clear_range m addr n
  else if n > 0 then begin
    let off = addr land page_mask in
    if off + n <= page_size then begin
      let p = ensure_page m (addr asr page_bits) in
      for i = off to off + n - 1 do
        set_in_page m p i tag
      done
    end
    else
      iter_chunks addr n (fun key off chunk ->
          let p = ensure_page m key in
          for i = off to off + chunk - 1 do
            set_in_page m p i tag
          done)
  end

let add_range m addr n tag =
  if Taint.is_tainted tag && n > 0 then begin
    let off = addr land page_mask in
    if off + n <= page_size then begin
      let p = ensure_page m (addr asr page_bits) in
      for i = off to off + n - 1 do
        set_in_page m p i (Taint.union p.data.(i) tag)
      done
    end
    else
      iter_chunks addr n (fun key off chunk ->
          let p = ensure_page m key in
          for i = off to off + chunk - 1 do
            set_in_page m p i (Taint.union p.data.(i) tag)
          done)
  end

(* Any tainted byte in [addr, addr+n)?  Page summaries only — a live page
   makes the answer a conservative [true] without scanning bytes. *)
let range_maybe_tainted m addr n =
  if m.total = 0 || n <= 0 then false
  else begin
    let found = ref false in
    iter_chunks addr n (fun key _off _chunk ->
        if (find_page m key).live > 0 then found := true);
    !found
  end

let copy_range m ~src ~dst ~len =
  if len > 0 && src <> dst then
    if not (range_maybe_tainted m src len) then
      (* all-clear source: copying is just clearing the destination, and
         even that is free when the destination pages are clear too *)
      clear_range m dst len
    else if dst < src then
      (* memmove semantics without a snapshot: copy in the direction that
         cannot overwrite not-yet-read source bytes *)
      for i = 0 to len - 1 do
        set m (dst + i) (get m (src + i))
      done
    else
      for i = len - 1 downto 0 do
        set m (dst + i) (get m (src + i))
      done

let tainted_bytes m = m.total

let reset m =
  Hashtbl.reset m.pages;
  m.total <- 0;
  m.last_key <- no_key;
  m.last_page <- dummy_page
