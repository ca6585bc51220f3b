(* Tolerance helpers for stating interval assertions. *)

open Adpm_interval

(* [a] widened by [eps] on both sides. *)
let inflate eps a = Interval.make (Interval.lo a -. eps) (Interval.hi a +. eps)

(* Every point of [a] lies in [b]. *)
let subset a b = Interval.lo b <= Interval.lo a && Interval.hi a <= Interval.hi b
