(** Streaming statistics accumulator.

    Collects scalar observations and reports count, mean, standard deviation,
    extrema and quantiles. Mean and variance use Welford's online update so
    they remain numerically stable for long series; quantiles retain the full
    sample (our series are small: at most a few thousand simulation runs). *)

type t

val create : unit -> t
(** Fresh, empty accumulator. *)

val add : t -> float -> unit
(** Record one observation. *)

val add_int : t -> int -> unit
(** Record one integer observation. *)

val mean : t -> float
(** Arithmetic mean; [nan] when empty. *)

val stddev : t -> float
(** Square root of the unbiased sample variance; [0.] with fewer than two
    observations. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [\[0, 1\]], by linear interpolation between
    order statistics; [nan] when empty. The sorted sample array is cached
    and invalidated by {!add}, so repeated quantile queries between
    additions sort only once. *)

val median : t -> float
(** [quantile t 0.5]. *)

val to_list : t -> float list
(** All observations, in insertion order. *)
