package repro.baselines

import repro.core._
import repro.index.SimHashLsh
import scala.collection.mutable

/** D3L baseline (Bogatu et al., ICDE'20) — an ensemble of per-column
  * similarity evidence (column-name evidence omitted, as in the paper's fair
  * comparison): token-overlap Jaccard, character-format distribution
  * similarity, and numeric-distribution similarity. Table-level score uses
  * the same bipartite aggregation as Starmie.
  */
object D3L {

  /** Precomputed per-column evidence features. */
  final case class ColSig(tokens: Set[String],
                          formats: Map[String, Double],
                          numeric: Option[(Double, Double)]) // (mean, std)

  def signature(c: ColumnData): ColSig = {
    val fmts = c.values.filter(_ != null).map(Tokenizer.formatSignature)
    val fmtDist =
      if (fmts.isEmpty) Map.empty[String, Double]
      else fmts.groupBy(identity).view.mapValues(_.size.toDouble / fmts.size).toMap
    val nums = c.values.filter(Tokenizer.isNumeric).map(_.toDouble)
    val numSig =
      if (nums.size * 2 >= math.max(1, c.values.size)) {
        val m = nums.sum / nums.size
        val v = nums.map(x => (x - m) * (x - m)).sum / nums.size
        Some((m, math.sqrt(v)))
      } else None
    ColSig(c.tokenSet, fmtDist, numSig)
  }

  def jaccard(a: Set[String], b: Set[String]): Double = {
    if (a.isEmpty && b.isEmpty) return 0.0
    val inter = a.intersect(b).size
    inter.toDouble / (a.size + b.size - inter)
  }

  /** cosine between two sparse distributions */
  def distCosine(a: Map[String, Double], b: Map[String, Double]): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    val dot = a.iterator.map { case (k, v) => v * b.getOrElse(k, 0.0) }.sum
    val na  = math.sqrt(a.valuesIterator.map(v => v * v).sum)
    val nb  = math.sqrt(b.valuesIterator.map(v => v * v).sum)
    dot / (na * nb)
  }

  /** overlap of the mean±std intervals of two numeric columns */
  def numericOverlap(a: (Double, Double), b: (Double, Double)): Double = {
    val (al, ah) = (a._1 - a._2, a._1 + a._2)
    val (bl, bh) = (b._1 - b._2, b._1 + b._2)
    val inter = math.min(ah, bh) - math.max(al, bl)
    val union = math.max(ah, bh) - math.min(al, bl)
    if (union <= 0) 0.0 else math.max(0.0, inter) / union
  }

  /** Ensemble column unionability score in [0, 1]. */
  def columnScore(a: ColSig, b: ColSig): Double = {
    val parts = mutable.ArrayBuffer[Double]()
    parts += jaccard(a.tokens, b.tokens)
    parts += distCosine(a.formats, b.formats)
    (a.numeric, b.numeric) match {
      case (Some(x), Some(y)) => parts += numericOverlap(x, y)
      case (None, None)       => () // both textual: no numeric evidence either way
      case _                  => parts += 0.0 // numeric vs textual mismatch
    }
    parts.sum / parts.size
  }

  /** D3L searcher. As in the published system, candidate columns come from
    * LSH indexes over the column features (simHash over the hashed-token
    * vectors); only candidate tables are scored — LSH recall loss is part of
    * D3L's measured effectiveness in the paper's Table 3.
    */
  final class Searcher(lake: IndexedSeq[TableData], tau: Double = 0.5,
                       lshTables: Int = 6, lshBits: Int = 10) {
    private val sigs: Map[String, IndexedSeq[ColSig]] =
      lake.iterator.map(t => t.id -> t.columns.map(signature)).toMap

    private val feat = new Featurizer()
    private val index = Search.buildColumnIndex(
      lake.map(t => t.id -> t.columns.map(c => feat.hashedTokens(c.tokens))),
      d => new SimHashLsh(d, lshTables, lshBits, seed = 19))

    def tableScore(q: TableData, tid: String): Double = {
      val qs = q.columns.map(signature)
      val ts = sigs(tid)
      val w  = Array.tabulate(qs.size, ts.size)((i, j) => columnScore(qs(i), ts(j)))
      Matching.maxWeightMatching(Matching.thresholded(w, tau))._1
    }

    def query(q: TableData, k: Int): IndexedSeq[(String, Double)] = {
      val qCols = q.columns.map(c => feat.hashedTokens(c.tokens))
      index.candidateTables(qCols, Double.NegativeInfinity, 64)
        .map(tid => tid -> tableScore(q, tid))
        .sortBy(-_._2).take(k)
    }
  }
}
