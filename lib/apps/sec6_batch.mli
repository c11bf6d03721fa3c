(** The Sec. VI manual-input batch.

    "We manually generated input and executed 8 randomly selected apps,
    which use JNI and are related to phone/SMS/contacts.  NDroid found that
    3 apps delivered the contact and SMS information to native code.  One
    app (i.e., ephone3.3) further sends out the contact information through
    native code."

    Eight apps with exactly that structure: {!ephone} leaks; two more
    ({!sms_backup}, {!contacts_widget}) hand sensitive data to native code
    that only processes it (a SourcePolicy fires, no sink is reached); the
    other five use JNI on non-sensitive data or keep sensitive data in
    Java. *)

val apps : Harness.app list
(** The batch, ePhone first. *)

type verdict = {
  v_app : string;
  delivered_to_native : bool;
      (** NDroid created a SourcePolicy: tainted data entered native code *)
  leaked : bool;
}

val summary : unit -> verdict list
