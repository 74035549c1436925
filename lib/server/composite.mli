(** Composite request bodies: template + model in one POST.

    [<docgen-request><template>...</template><model>...</model></docgen-request>]

    lets a client generate against a per-request model instead of the
    server's configured one. Plain bodies pass through untouched. *)

val is_composite : string -> bool
(** True when the body starts with the [<docgen-request>] marker. *)

val split : string -> string * string option
(** [(template_xml, model_xml option)]. A non-composite body comes back
    as [(body, None)]; a composite without a [<model>] section yields
    its template and [None]. String-level — no XML parse, payloads
    returned verbatim so content-hash caches key on the client's exact
    bytes. *)

val build : template:string -> model:string -> string
(** Assemble a composite body (clients, bench, tests). *)
