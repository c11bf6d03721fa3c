open App_model

type params = { total : int; seed : int; type1_permille : int option }

let full_total = 227_911
let default_params = { total = full_total; seed = 2014; type1_permille = None }
let scaled n = { total = max 64 n; seed = 2014; type1_permille = None }

(* splitmix64-style deterministic hash: every attribute of app [i] is a pure
   function of (seed, i, salt). *)
let mix seed i salt =
  let z = ref ((seed * 0x9E3779B9) lxor (i * 0x85EBCA6B) lxor (salt * 0xC2B2AE35)) in
  z := (!z lxor (!z lsr 15)) * 0x2C1B3C6D land max_int;
  z := (!z lxor (!z lsr 12)) * 0x297A2D39 land max_int;
  !z lxor (!z lsr 15)

let rand params i salt range = if range <= 0 then 0 else mix params.seed i salt mod range

(* Exact sub-population sizes, scaled from the paper's counts. *)
type quotas = {
  q_type1 : int;
  q_type1_no_libs : int;
  q_type1_no_libs_admob : int;
  q_type2 : int;
  q_type2_loadable : int;
  q_type3 : int;
  q_type3_game : int;
}

let quotas params =
  let scale n =
    if params.total = full_total then n
    else max 1 (n * params.total / full_total)
  in
  let q_type1 =
    match params.type1_permille with
    | None -> scale 37_506
    | Some pm -> max 1 (params.total * pm / 1000)
  in
  let q_type1_no_libs =
    (* without an override the paper's exact count; otherwise the paper's
       proportion of the overridden Type-I population *)
    match params.type1_permille with
    | None -> min q_type1 (scale 4_034)
    | Some _ -> max 1 (q_type1 * 4_034 / 37_506)
  in
  { q_type1;
    q_type1_no_libs;
    q_type1_no_libs_admob = q_type1_no_libs * 481 / 1000;
    q_type2 = scale 1_738;
    q_type2_loadable = scale 394;
    q_type3 = (if params.total = full_total then 16 else max 1 (scale 16));
    q_type3_game = (if params.total = full_total then 11 else max 1 (scale 16) * 11 / 16)
  }

(* Fig. 2's Type-I category distribution in per-mille. *)
let type1_category_dist =
  [ (Game, 420); (Music_and_audio, 50); (Personalization, 50);
    (Communication, 40); (Entertainment, 40); (Tools, 40); (Media_video, 30);
    (Photography, 30); (Productivity, 30); (Social, 30); (Sports, 30);
    (Lifestyle, 30); (Books, 20); (Business, 20); (Education, 20);
    (Finance, 20); (Health, 20); (News, 20); (Shopping, 20); (Travel, 20);
    (Weather, 20) ]

let pick_weighted dist roll =
  let rec go acc = function
    | [] -> Game
    | (cat, w) :: rest -> if roll < acc + w then cat else go (acc + w) rest
  in
  go 0 dist

let uniform_category params i =
  List.nth all_categories (rand params i 11 (List.length all_categories))

let type1_category params i = pick_weighted type1_category_dist (rand params i 12 1000)

(* Libraries typical of a category, plus the compatibility bundles. *)
let libs_for params i category =
  let candidates =
    List.filter
      (fun (_, c) -> match c with None -> true | Some c -> c = category)
      popular_libs
  in
  let n = 1 + rand params i 13 3 in
  List.init n (fun k ->
      let name, _ = List.nth candidates (rand params i (14 + k) (List.length candidates)) in
      { lib_name = name; abi = Armeabi })

let package params i =
  Printf.sprintf "com.market.a%06d.%c%c" i
    (Char.chr (Char.code 'a' + rand params i 1 26))
    (Char.chr (Char.code 'a' + rand params i 2 26))

let native_classes params i n =
  List.init n (fun k ->
      Printf.sprintf "Lcom/market/a%06d/Native%d;" i (k + rand params i (20 + k) 7))

(* plausible framework traffic every dex contains *)
let common_method_refs params i =
  let pool =
    [ "Landroid/app/Activity;->onCreate(Landroid/os/Bundle;)V";
      "Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I";
      "Ljava/lang/StringBuilder;->append(Ljava/lang/String;)Ljava/lang/StringBuilder;";
      "Landroid/content/Context;->getSystemService(Ljava/lang/String;)Ljava/lang/Object;";
      "Ljava/util/List;->add(Ljava/lang/Object;)Z";
      "Landroid/view/View;->setOnClickListener(Landroid/view/View$OnClickListener;)V" ]
  in
  List.filteri (fun k _ -> rand params i (30 + k) 100 < 70) pool

let loader_refs params i =
  (* Type I / loadable dexes carry one of the two load invocations *)
  let sig_ =
    List.nth load_invocation_sigs (rand params i 31 (List.length load_invocation_sigs))
  in
  sig_ :: common_method_refs params i

(* A deterministic sliver of the market actually leaks: its dex references a
   privacy source and then a sink, with the materialized bodies threading the
   source's result to the sink's argument (Apk.main_class_of_dex).  These are
   the apps a static triage pass must NOT prune. *)
let source_sigs =
  [ "Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String;";
    "Landroid/telephony/TelephonyManager;->getSubscriberId()Ljava/lang/String;";
    "Landroid/provider/ContactsProvider;->getContactEmail(I)Ljava/lang/String;";
    "Landroid/provider/SmsProvider;->getSmsBody(I)Ljava/lang/String;" ]

let sink_sigs =
  [ "Ljava/net/Socket;->send(Ljava/lang/String;Ljava/lang/String;)V";
    "Landroid/telephony/SmsManager;->sendTextMessage(Ljava/lang/String;Ljava/lang/String;)V";
    "Landroid/util/Log;->i(Ljava/lang/String;Ljava/lang/String;)I" ]

let leak_refs params i =
  [ List.nth source_sigs (rand params i 34 (List.length source_sigs));
    List.nth sink_sigs (rand params i 35 (List.length sink_sigs)) ]

(* ~12% of Type I apps and ~3% of plain-Java apps leak *)
let type1_leaky params i = rand params i 33 1000 < 120
let java_leaky params i = rand params i 33 1000 < 30

(* ground truth, rederivable from the artifacts alone *)
let app_is_leaky (app : App_model.t) =
  match app.main_dex with
  | None -> false
  | Some d ->
    List.exists (fun r -> List.mem r source_sigs) d.method_refs
    && List.exists (fun r -> List.mem r sink_sigs) d.method_refs

let app params i =
  let q = quotas params in
  (* Band layout by id (the stream is a deterministic permutation of bands:
     ids are already arbitrary, so banding by id is as good as shuffling). *)
  let t1_end = q.q_type1 in
  let t2_end = t1_end + q.q_type2 in
  let t3_end = t2_end + q.q_type3 in
  let downloads = 1000 + (rand params i 3 1_000_000) in
  if i < t1_end then begin
    (* ---- Type I ---- *)
    let category = type1_category params i in
    let without_libs = i < q.q_type1_no_libs in
    let admob = without_libs && i < q.q_type1_no_libs_admob in
    let decl =
      if admob then admob_classes
      else native_classes params i (1 + rand params i 21 3)
    in
    let refs =
      loader_refs params i
      @ (if type1_leaky params i then leak_refs params i else [])
    in
    { app_id = i;
      package = package params i;
      category;
      main_dex = Some { method_refs = refs; native_decl_classes = decl };
      embedded_dexes = [];
      libs = (if without_libs then [] else libs_for params i category);
      downloads }
  end
  else if i < t2_end then begin
    (* ---- Type II: libraries present, no load call in the main dex ---- *)
    let category = uniform_category params i in
    let loadable = i - t1_end < q.q_type2_loadable in
    let embedded =
      if loadable then
        [ { method_refs = loader_refs params i;
            native_decl_classes = native_classes params i 1 } ]
      else []
    in
    (* some Type II apps only bundle foreign-ABI leftovers *)
    let libs =
      let base = libs_for params i category in
      if (not loadable) && rand params i 22 100 < 40 then
        List.map (fun l -> { l with abi = X86 }) base
      else base
    in
    { app_id = i;
      package = package params i;
      category;
      main_dex = Some { method_refs = common_method_refs params i;
                        native_decl_classes = [] };
      embedded_dexes = embedded;
      libs;
      downloads }
  end
  else if i < t3_end then begin
    (* ---- Type III: pure native ---- *)
    let in_band = i - t2_end in
    let category = if in_band < q.q_type3_game then Game else Entertainment in
    { app_id = i;
      package = package params i;
      category;
      main_dex = None;
      embedded_dexes = [];
      libs =
        { lib_name = "libmain.so"; abi = Armeabi }
        :: libs_for params i category;
      downloads }
  end
  else begin
    (* ---- plain Java app ---- *)
    let refs =
      common_method_refs params i
      @ (if java_leaky params i then leak_refs params i else [])
    in
    { app_id = i;
      package = package params i;
      category = uniform_category params i;
      main_dex = Some { method_refs = refs; native_decl_classes = [] };
      embedded_dexes = [];
      libs = [];
      downloads }
  end

let generate params = Seq.init params.total (fun i -> app params i)

type preset = {
  p_name : string;
  p_when : string;
  p_source : string;
  p_total : int;
  p_type1_permille : int;
}

let presets =
  [ { p_name = "play-2011a"; p_when = "May-Jun 2011";
      p_source = "Zhou et al. [2]"; p_total = 204_040; p_type1_permille = 45 };
    { p_name = "play-2011b"; p_when = "Sep-Oct 2011";
      p_source = "Zhou et al. [3]"; p_total = 118_318; p_type1_permille = 94 };
    { p_name = "play-2012-13"; p_when = "Jun 2012 - Jun 2013";
      p_source = "this paper"; p_total = 227_911; p_type1_permille = 165 };
    { p_name = "asian-3rd-party"; p_when = "2013";
      p_source = "Spreitzenbarth et al. [4]"; p_total = 30_000;
      p_type1_permille = 240 } ]

let of_preset p =
  if p.p_name = "play-2012-13" then
    { total = p.p_total; seed = 2014; type1_permille = None }
  else
    { total = p.p_total; seed = 2014; type1_permille = Some p.p_type1_permille }
