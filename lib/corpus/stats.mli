(** Aggregation of the classifier's output into the Section III numbers and
    the Fig. 2 category distribution. *)

type summary = {
  total : int;
  type1 : int;
  type1_pct : float;  (** the paper's headline 16.46% *)
  type1_no_libs : int;
  type1_no_libs_admob : int;  (** carrying the 8 AdMob classes *)
  admob_pct_of_no_libs : float;  (** the paper's 48.1% *)
  type2 : int;
  type2_loadable : int;
  type3 : int;
  type3_game : int;
  type3_entertainment : int;
  category_hist : (App_model.category * int) list;
      (** Type I apps per category, descending *)
  top_libs : (string * int) list;  (** bundled library popularity, descending *)
}

val summarize : App_model.t Seq.t -> summary
(** One streaming pass over the corpus. *)

val fig2_distribution : summary -> (string * float) list
(** Category shares of Type I apps as percentages, descending (Fig. 2). *)

val pp_summary : Format.formatter -> summary -> unit
val pp_fig2 : Format.formatter -> summary -> unit

(** The "Library Distribution" analysis: the 20 most popular libraries with
    their provenance, mirroring the paper's observations that game-engine
    libraries dominate, media libraries follow, and NDK/system libraries are
    "bundled with the applications for addressing Android's poor
    compatibility". *)
type lib_kind = Game_engine | Media | Compatibility | Other

type lib_entry = {
  le_name : string;
  le_count : int;
  le_kind : lib_kind;
  le_top_category : App_model.category;  (** category bundling it most *)
}

val library_distribution : App_model.t Seq.t -> lib_entry list
(** Top libraries, descending by bundle count. *)

val pp_library_distribution : Format.formatter -> lib_entry list -> unit
