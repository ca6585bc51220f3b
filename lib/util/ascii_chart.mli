(** ASCII rendering of the paper's figures.

    The original TeamSim fed Gnuplot; here each figure is rendered as a
    character grid so benchmark output is self-contained. Two chart kinds
    cover every figure in the paper: line charts (profiles such as Fig. 7,
    sweeps such as Fig. 10) and horizontal bar charts (aggregates such as
    Fig. 9). *)

type series = { label : string; points : (float * float) list }
(** A named series of (x, y) points. *)

val line_chart :
  ?x_label:string ->
  ?y_label:string ->
  title:string ->
  series list ->
  string
(** Render one or more series on shared axes. Each series is drawn with its
    own glyph ([*], [o], [+], [x], ...); a legend maps glyphs to labels.
    The plotting area is 72 columns by 20 rows. *)

val bar_chart : title:string -> (string * float) list -> string
(** Horizontal bars, one per labelled value, scaled to the maximum (50
    columns). *)

val histogram : ?bins:int -> title:string -> float list -> string
(** Distribution of a sample as a vertical-bar histogram rendered
    horizontally (one row per bin). *)
