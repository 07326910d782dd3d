package repro.perfbench

/** Summary statistics of the benchmark. */
object Stats {

  def mean(xs: Iterable[Double]): Double =
    if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def median(xs: Iterable[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.toIndexedSeq.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** A tail percentile of `xs` that keeps at least ten samples beyond it.
    * Asks for percentile `pct` (e.g. 99); with too few samples for that, it
    * falls back to the highest rank that still leaves ten samples above.
    * Returns (value, percentile actually reported, sample count).
    */
  def tail(xs: Iterable[Double], pct: Double): (Double, Double, Int) = {
    require(xs.nonEmpty, "percentile of nothing")
    val s    = xs.toIndexedSeq.sorted
    val n    = s.size
    val want = math.ceil(pct * n / 100.0).toInt
    val rank = math.max(1, math.min(want, n - 10)) // 1-based
    (s(rank - 1), 100.0 * rank / n, n)
  }

  /** Fraction of the exact top-k that an index's candidate set contains.
    * Only entries with a positive score count: a table with U(S,T) = 0 has
    * no column pair above τ, so no column index can propose it. None when
    * the exact top-k holds no positive entry.
    */
  def candidateRecall(exactTopK: Seq[(String, Double)],
                      candidates: Set[String]): Option[Double] = {
    val relevant = exactTopK.filter(_._2 > 0.0).map(_._1)
    if (relevant.isEmpty) None
    else Some(relevant.count(candidates.contains).toDouble / relevant.size)
  }
}
