package repro.baselines

import repro.core.TableData
import repro.lake.LakeGen.Lake
import scala.util.Random

/** SANTOS baseline (Khatiwada et al., SIGMOD'23) — relationship-based table
  * union search driven by a knowledge base.
  *
  * Simulation (DESIGN.md §2): the KB annotates a column with a class by
  * looking its values up. For covered *text* surfaces the class equals the
  * surface (a KB labels "Ottawa" a City regardless of table context, so
  * homographs share a class — SANTOS's Figure-1 failure mode). Numeric
  * values are only coarsely classifiable (years, counts, money all look
  * alike), so numeric surfaces map to one of five coarse range classes.
  * `coverage` controls which surfaces the KB knows at all.
  *
  * Scoring follows SANTOS's design: matched column classes plus matched
  * binary relationships (unordered class pairs co-occurring in one table).
  */
final class SantosLike(classesOf: TableData => IndexedSeq[Option[String]]) {

  def annotate(t: TableData): IndexedSeq[Option[String]] = classesOf(t)

  def classMultiset(t: TableData): Map[String, Int] =
    annotate(t).flatten.groupBy(identity).view.mapValues(_.size).toMap

  def relationships(t: TableData): Set[(String, String)] = {
    val cls = annotate(t).flatten
    (for {
      i <- cls.indices; j <- cls.indices if i < j
    } yield {
      val (a, b) = (cls(i), cls(j))
      if (a <= b) (a, b) else (b, a)
    }).toSet
  }

  /** SANTOS unionability score between two (annotated) tables. */
  def score(q: TableData, t: TableData): Double =
    score(classMultiset(q), relationships(q), classMultiset(t), relationships(t))

  /** Matched column classes plus matched binary relationships. */
  private def score(qc: Map[String, Int], qr: Set[(String, String)],
                    tc: Map[String, Int], tr: Set[(String, String)]): Double = {
    val colMatch = qc.iterator.map { case (c, n) => math.min(n, tc.getOrElse(c, 0)) }.sum
    colMatch + qr.intersect(tr).size.toDouble
  }

  /** Lake searcher with per-table annotations precomputed once. */
  final class Searcher(lake: IndexedSeq[TableData]) {
    private val cache: IndexedSeq[(String, Map[String, Int], Set[(String, String)])] =
      lake.map(t => (t.id, classMultiset(t), relationships(t)))

    def query(q: TableData, k: Int): IndexedSeq[(String, Double)] = {
      val qc = classMultiset(q)
      val qr = relationships(q)
      cache.map { case (tid, tc, tr) => tid -> score(qc, qr, tc, tr) }.sortBy(-_._2).take(k)
    }
  }
}

object SantosLike {

  /** Build the simulated KB for a lake: a `coverage` fraction of surfaces is
    * known; text surfaces map to themselves, numeric surfaces to the coarse
    * range class shared by all numeric surfaces of the same flavour.
    */
  def build(lake: Lake, coverage: Double, seed: Long = 17): SantosLike = {
    val rnd = new Random(seed)
    val surfaces = lake.colSurfaceType.values.toIndexedSeq.distinct.sorted
    val known    = rnd.shuffle(surfaces).take(math.max(1, (surfaces.size * coverage).round.toInt)).toSet
    // value-string → class lookup, built from the lake itself (SANTOS's
    // "self-curated KB"): text value → its surface; numeric → coarse class.
    val valueClass = scala.collection.mutable.HashMap[String, String]()
    lake.tables.foreach { t =>
      t.columns.zipWithIndex.foreach { case (c, ci) =>
        val surface = lake.colSurfaceType((t.id, ci))
        if (known(surface)) {
          val numeric = c.isNumeric
          val cls = if (numeric) s"num${math.abs(surface.hashCode) % 5}" else surface
          c.values.foreach { v =>
            if (v != null && v.nonEmpty && !valueClass.contains(v)) valueClass(v) = cls
          }
        }
      }
    }
    val lookup = valueClass.toMap
    val classesOf: TableData => IndexedSeq[Option[String]] = { t =>
      t.columns.map { c =>
        val votes = c.values.flatMap(lookup.get)
        if (votes.size * 2 < c.values.size) None // < 50% of cells known → unannotated
        else Some(votes.groupBy(identity).maxBy(_._2.size)._1)
      }
    }
    new SantosLike(classesOf)
  }
}
