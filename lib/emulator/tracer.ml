type t = { mutable traced : int; mutable skipped : int }

let create () = { traced = 0; skipped = 0 }

let admit t addr =
  if Layout.in_app_lib addr then begin
    t.traced <- t.traced + 1;
    true
  end
  else begin
    t.skipped <- t.skipped + 1;
    false
  end

let traced t = t.traced
let skipped t = t.skipped
