package repro.perfbench

import repro.core._
import scala.collection.mutable
import scala.util.Random

/** Per-layer measurements of the traced run. Each one times calls into a
  * layer's public functions from outside, inside spans of its own.
  */
object Layers {

  /** Queries whose sim-matrix, bound and verify costs are timed. */
  val UnitCostQueries = 20
  /** Training steps replayed to split featurization from the SGD step. */
  val ReplaySteps = 60

  /** Microseconds per table of `Featurizer.tableInputs` over the lake. */
  def tableInputsUs(e: Engine, tracer: Tracer): Double = {
    var sink = 0
    tracer.root("featurize", "featurizer.table_inputs") {
      e.lake.tables.foreach(t => sink += e.feat.tableInputs(t).size)
    }
    require(sink == e.lake.totalColumns)
    micros(tracer, "featurizer.table_inputs") / e.lake.tables.size
  }

  /** Microseconds per table of `Augment.dropCol` over the lake. */
  def dropColUs(e: Engine, seed: Long, tracer: Tracer): Double = {
    val rnd = new Random(seed)
    var sink = 0
    tracer.root("augment", "augment.drop_col") {
      e.lake.tables.foreach(t => sink += Augment.dropCol(t, rnd).alignment.size)
    }
    require(sink > 0)
    micros(tracer, "augment.drop_col") / e.lake.tables.size
  }

  final case class Replay(stepMsP50: Double, inputsMean: Double, featurizeShare: Double)

  /** Replays the first `ReplaySteps` batches of `trainMultiColumn`, built
    * the way it builds them (same RNG draws, same augmentation, same input
    * dropout), timing batch featurization and `Contrastive.step` apart.
    */
  def replayTraining(e: Engine, cfg: Contrastive.TrainConfig, tracer: Tracer): Replay = {
    val rnd = new Random(cfg.seed)
    val w0  = Linalg.randomMatrix(cfg.embedDim, e.feat.cfg.contextDim, cfg.seed + 1)
    val w   = w0.map(_.clone())
    val op  = Augment.byName(cfg.op)
    val steps  = math.min(ReplaySteps, cfg.maxSteps)
    val inputs = mutable.ArrayBuffer[Double]()
    var n = 0
    tracer.root("train-replay", "contrastive.replay") {
      while (n < steps) {
        rnd.shuffle(e.lake.tables).grouped(cfg.batchTables).foreach { batch =>
          if (n < steps) {
            val (xs, pos) = tracer.span("contrastive.featurize") {
              val xs  = mutable.ArrayBuffer[Array[Float]]()
              val pos = mutable.ArrayBuffer[(Int, Int)]()
              batch.foreach { t =>
                val view    = op(t, rnd)
                val oriBase = xs.size
                xs ++= e.feat.tableInputs(t).map(dropout(_, cfg.dropout, rnd))
                val augBase = xs.size
                xs ++= e.feat.tableInputs(view.table).map(dropout(_, cfg.dropout, rnd))
                view.alignment.zipWithIndex.foreach { case (o, a) =>
                  pos += ((oriBase + o, augBase + a))
                }
              }
              (xs.toIndexedSeq, pos.toSeq)
            }
            tracer.span("contrastive.step")(Contrastive.step(w, xs, pos,
              cfg.temperature, cfg.lr, cfg.anchorWeight, w0))
            inputs += xs.size.toDouble
            n += 1
          }
        }
      }
    }
    val featNs = tracer.byName("contrastive.featurize").map(_.nanos).sum.toDouble
    val stepNs = tracer.byName("contrastive.step").map(_.nanos.toDouble)
    Replay(Stats.median(stepNs) / 1e6, Stats.mean(inputs), featNs / (featNs + stepNs.sum))
  }

  /** Same as the private input dropout of `Contrastive`: one RNG draw per
    * input feature, scaled by 1/(1−p).
    */
  private def dropout(x: Array[Float], p: Double, rnd: Random): Array[Float] =
    if (p <= 0) x
    else {
      val scale = (1.0 / (1.0 - p)).toFloat
      x.map(v => if (rnd.nextDouble() < p) 0.0f else v * scale)
    }

  final case class UnitCosts(simUs: Double, boundsUs: Double, verifyUs: Double)

  /** Microseconds per lake table of the three steps a Pruning query does
    * per table: the similarity matrix, LB+UB, and exact verification.
    */
  def unitCosts(e: Engine, tracer: Tracer): UnitCosts = {
    val qs = e.queryEmb.take(UnitCostQueries)
    val tables = e.emb.map(_._2)
    var sink = 0.0
    qs.zipWithIndex.foreach { case (q, i) =>
      tracer.root(s"unit$i", "unit_costs") {
        val sims = tracer.span("matching.sim_matrix")(tables.map(Matching.simMatrix(q, _)))
        tracer.span("bounds.lb_ub")(sims.foreach { s =>
          sink += Bounds.lowerBound(s, e.tau) + Bounds.upperBound(s, e.tau)
        })
        tracer.span("matching.verify")(tables.foreach { t =>
          sink += Matching.tableUnionability(q, t, e.tau)
        })
      }
    }
    require(!sink.isNaN)
    val per = qs.size * tables.size
    UnitCosts(micros(tracer, "matching.sim_matrix") / per,
              micros(tracer, "bounds.lb_ub") / per, micros(tracer, "matching.verify") / per)
  }

  /** Mean candidate recall of an index mode over the seeded queries. */
  def candidateRecall(e: Engine, mode: Int): Double =
    Stats.mean(e.queryIds.indices.flatMap { q =>
      Stats.candidateRecall(e.refs(Modes.Linear)(q).ranked, e.cands(mode)(q).toSet)
    })

  private def micros(tracer: Tracer, name: String): Double =
    tracer.byName(name).map(_.nanos).sum / 1e3
}
