type t = int

let clear = 0
let is_clear t = t = 0
let is_tainted t = t <> 0
let union a b = a lor b
let ( ||| ) = union
let subset a b = a land b = a
let equal (a : t) b = a = b
let of_bits n = n land 0xFFFFFFFF
let to_bits t = t

let location = 0x1
let contacts = 0x2
let mic = 0x4
let phone_number = 0x8
let location_gps = 0x10
let location_net = 0x20
let location_last = 0x40
let camera = 0x80
let accelerometer = 0x100
let sms = 0x200
let imei = 0x400
let imsi = 0x800
let iccid = 0x1000
let device_sn = 0x2000
let account = 0x4000
let history = 0x8000

let all_labels =
  [ ("location", location);
    ("contacts", contacts);
    ("mic", mic);
    ("phone_number", phone_number);
    ("location_gps", location_gps);
    ("location_net", location_net);
    ("location_last", location_last);
    ("camera", camera);
    ("accelerometer", accelerometer);
    ("sms", sms);
    ("imei", imei);
    ("imsi", imsi);
    ("iccid", iccid);
    ("device_sn", device_sn);
    ("account", account);
    ("history", history) ]

let categories t =
  let named =
    List.filter_map
      (fun (name, bit) -> if t land bit <> 0 then Some name else None)
      all_labels
  in
  let known_mask = List.fold_left (fun acc (_, bit) -> acc lor bit) 0 all_labels in
  let rec unknown acc i =
    if i >= 32 then List.rev acc
    else
      let bit = 1 lsl i in
      if t land bit <> 0 && known_mask land bit = 0 then
        unknown (Printf.sprintf "bit%d" i :: acc) (i + 1)
      else unknown acc (i + 1)
  in
  named @ unknown [] 0

let pp ppf t = Format.fprintf ppf "0x%x" t

let pp_verbose ppf t =
  if is_clear t then Format.fprintf ppf "0x0(clear)"
  else Format.fprintf ppf "0x%x(%s)" t (String.concat "|" (categories t))

let to_string t = Format.asprintf "%a" pp t
