(** Synthetic market generator.

    The paper crawled 227,911 apps from Google Play (Jun. 2012 - Jun. 2013)
    and reports exact sub-population sizes (Sec. III).  This generator
    produces a deterministic synthetic market with those sizes by
    construction — the {e classifier} ({!Classifier}) then re-derives every
    statistic from the generated artifacts alone, so the study pipeline is
    real even though the corpus is synthetic.

    Population at full scale:
    - 37,506 Type I apps (invoke [System.load*]), of which 4,034 bundle no
      libraries — 48.1% of those carrying the eight AdMob plugin classes;
    - 1,738 Type II apps (bundle libraries, never call load), of which 394
      carry embedded dex files that do call load;
    - 16 Type III pure-native apps (11 games, 5 entertainment);
    - the rest use no native code at all.

    Type I category proportions follow Fig. 2 (Game 42%, Music & Audio 5%,
    Personalization 5%, …). *)

type params = {
  total : int;
  seed : int;
  type1_permille : int option;
      (** override the Type-I share (the paper corpus uses the exact
          37,506/227,911); sub-populations scale proportionally *)
}

val default_params : params
(** Full scale: [total = 227_911], [seed = 2014]. *)

val scaled : int -> params
(** Same proportions at a smaller population. *)

val generate : params -> App_model.t Seq.t
(** Lazy, deterministic stream of apps in id order. *)

val app : params -> int -> App_model.t
(** Generate one app by id (0-based), identical to the stream's element. *)

val app_is_leaky : App_model.t -> bool
(** Ground truth for the triage benchmark, rederived from the app's own
    method references (source AND sink present in the main dex). *)

(** A published measurement of native-code prevalence, for the trend the
    paper's introduction traces: Zhou et al. measured 4.52% (May-Jun 2011)
    then 9.42% (Sep-Oct 2011); this paper measures 16.46% (Jun 2012 -
    Jun 2013); Spreitzenbarth et al. report 24% on Asian third-party
    markets. *)
type preset = {
  p_name : string;
  p_when : string;
  p_source : string;
  p_total : int;
  p_type1_permille : int;  (** Type-I share in 0.1% units *)
}

val presets : preset list
(** The four published data points, oldest first. *)

val of_preset : preset -> params
