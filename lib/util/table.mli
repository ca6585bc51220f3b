(** Plain-text table rendering for experiment reports.

    Produces aligned, boxed tables comparable to the tables in the paper's
    evaluation section. Cells are strings; the caller formats numbers. *)

type align = Left | Right | Center

type t

val create : ?title:string -> string list -> t
(** [create ~title headers] starts a table with one header row. *)

val set_align : t -> align list -> unit
(** Per-column alignment; default is [Left] for every column. Lists shorter
    than the column count leave remaining columns at their current setting. *)

val add_row : t -> string list -> unit
(** Append a body row. Rows shorter than the header are padded with empty
    cells; longer rows are truncated to the header width. *)

val render : t -> string
(** Render to a string, ending with a newline. *)
