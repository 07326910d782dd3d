package repro.core

/** Table unionability (§4.1): U(S,T) is the maximum-weight bipartite
  * matching over column pairs whose cosine similarity is ≥ τ (Figure 7).
  * Exact matching uses the O(n³) Hungarian algorithm with potentials.
  */
object Matching {

  /** Cosine similarity matrix between two embedding lists (|S| × |T|).
    * Embeddings are already L2-normalized, so dot = cosine. Both training
    * (NT-Xent over `Vector` batches) and search (lake `ArraySeq`s) call this,
    * so the inner loop reads `t` through a plain array: collection calls there
    * would be compiled for training's classes first and slow search down.
    */
  def simMatrix(s: IndexedSeq[Array[Float]], t: IndexedSeq[Array[Float]]): Array[Array[Double]] = {
    val ts = t.toArray
    val m  = Array.ofDim[Double](s.size, ts.length)
    var i = 0
    while (i < m.length) {
      val si = s(i); val mi = m(i)
      var j = 0
      while (j < ts.length) { mi(j) = Linalg.dot(si, ts(j)).toDouble; j += 1 }
      i += 1
    }
    m
  }

  /** τ-thresholded edge weights: entries below τ become 0 (no edge). */
  def thresholded(sim: Array[Array[Double]], tau: Double): Array[Array[Double]] =
    sim.map(_.map(w => if (w >= tau) w else 0.0))

  /** Maximum-weight bipartite matching of a non-negative weight matrix.
    * Returns (total weight, matched pairs with weight > 0).
    */
  def maxWeightMatching(weights: Array[Array[Double]]): (Double, Seq[(Int, Int)]) = {
    val rows = weights.length
    if (rows == 0 || weights(0).length == 0) return (0.0, Seq.empty)
    val cols = weights(0).length
    // Hungarian solves min-cost with n ≤ m rows; transpose if needed and
    // negate weights (all ≥ 0, so costs ≤ 0 — fine for the potentials form).
    val transposed = rows > cols
    val a = if (transposed) {
      Array.tabulate(cols, rows)((i, j) => -weights(j)(i))
    } else {
      Array.tabulate(rows, cols)((i, j) => -weights(i)(j))
    }
    val assign = hungarianMin(a)
    val pairs = assign.zipWithIndex.collect {
      case (j, i) if j >= 0 =>
        val (si, tj) = if (transposed) (j, i) else (i, j)
        (si, tj)
    }.filter { case (si, tj) => weights(si)(tj) > 0.0 }
    val total = pairs.iterator.map { case (si, tj) => weights(si)(tj) }.sum
    (total, pairs.toSeq)
  }

  /** U(S,T): the table unionability score for two embedded tables. */
  def tableUnionability(s: IndexedSeq[Array[Float]], t: IndexedSeq[Array[Float]],
                        tau: Double): Double =
    maxWeightMatching(thresholded(simMatrix(s, t), tau))._1

  /** Classic Hungarian algorithm (potentials form) for an n×m cost matrix
    * with n ≤ m, minimizing total cost of a perfect row assignment.
    * Returns for each row the assigned column.
    */
  private def hungarianMin(a: Array[Array[Double]]): Array[Int] = {
    val n = a.length
    val m = a(0).length
    require(n <= m, "rows must not exceed cols")
    val INF = Double.MaxValue / 4
    val u   = new Array[Double](n + 1)
    val v   = new Array[Double](m + 1)
    val p   = new Array[Int](m + 1) // p(j): row (1-based) matched to col j; 0 = free
    val way = new Array[Int](m + 1)
    var i = 1
    while (i <= n) {
      p(0) = i
      var j0   = 0
      val minv = Array.fill(m + 1)(INF)
      val used = new Array[Boolean](m + 1)
      var done = false
      while (!done) {
        used(j0) = true
        val i0 = p(j0)
        var delta = INF
        var j1 = 0
        var j = 1
        while (j <= m) {
          if (!used(j)) {
            val cur = a(i0 - 1)(j - 1) - u(i0) - v(j)
            if (cur < minv(j)) { minv(j) = cur; way(j) = j0 }
            if (minv(j) < delta) { delta = minv(j); j1 = j }
          }
          j += 1
        }
        j = 0
        while (j <= m) {
          if (used(j)) { u(p(j)) += delta; v(j) -= delta }
          else minv(j) -= delta
          j += 1
        }
        j0 = j1
        if (p(j0) == 0) done = true
      }
      // augment along the path
      while (j0 != 0) {
        val j1 = way(j0)
        p(j0) = p(j1)
        j0 = j1
      }
      i += 1
    }
    val res = Array.fill(n)(-1)
    var j = 1
    while (j <= m) {
      if (p(j) > 0) res(p(j) - 1) = j - 1
      j += 1
    }
    res
  }
}
