type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create dummy =
  { data = Array.make 16 dummy; len = 0; dummy }

let reset p = p.len <- 0

let push p x =
  let n = Array.length p.data in
  if p.len = n then begin
    let data = Array.make (2 * n) p.dummy in
    Array.blit p.data 0 data 0 n;
    p.data <- data
  end;
  p.data.(p.len) <- x;
  p.len <- p.len + 1

let emit p = Array.sub p.data 0 p.len
