package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.index.{Hnsw, SimHashLsh}
import repro.lake.Benchmarks.Profile
import repro.lake.LakeGen
import repro.lake.LakeGen.Lake
import repro.baselines._

/** Shared experiment drivers. Every jobs/ main and every bench suite calls
  * these, so the bench numbers and the spark-submit numbers are the same
  * code path.
  */
object Experiments {

  /** Edge threshold τ for the bipartite graph (§4.1), set by hand from two
    * MAP@k sweeps: jobs/TuneStarmie.scala swept τ ∈ {0.5, 0.6} together with
    * the encoder's learning rate, steps, anchor weight and dropout on a
    * held-out tiny lake (8 templates × 8 tables), and jobs/ProbeTau.scala
    * swept τ alone over 0.35–0.60 in steps of 0.05 on 30 santosSmall
    * queries, the grid 0.45 comes from. Commit 53129aa is the last one with
    * both mains.
    */
  val DefaultTau = 0.45

  final case class Embedded(method: String,
                            lake: IndexedSeq[(String, IndexedSeq[Array[Float]])]) {
    lazy val byId: Map[String, IndexedSeq[Array[Float]]] = lake.toMap
  }

  final case class EvalRow(benchmark: String, method: String, k: Int,
                           map: Double, p: Double, r: Double, ideal: Double,
                           avgQueryMillis: Double, avgVerifications: Double)

  // ---- offline stage -------------------------------------------------------

  /** Train the two Starmie encoders (multi-column + SingleCol) and the
    * Sherlock/SATO baselines for a lake.
    */
  final case class LakeModels(feat: Featurizer, starmie: StarmieEncoder,
                              singleCol: SingleColEncoder,
                              sherlock: SherlockEncoder, sato: SatoEncoder)

  def trainModels(lake: Lake, profile: Profile,
                  trainCfg: Contrastive.TrainConfig = Contrastive.TrainConfig()): LakeModels = {
    val feat = new Featurizer()
    val wMulti  = Contrastive.trainMultiColumn(lake.tables, feat, trainCfg)
    val wSingle = Contrastive.trainSingleColumn(lake.tables, feat,
      trainCfg.copy(maxSteps = trainCfg.maxSteps / 2))
    val sherlock = SherlockEncoder.train(lake, feat, profile.sherlockKnownFraction)
    val sato     = new SatoEncoder(feat, sherlock)
    LakeModels(feat, new StarmieEncoder(feat, wMulti),
               new SingleColEncoder(feat, wSingle), sherlock, sato)
  }

  /** Model inference over the whole lake. With a SparkSession this runs the
    * DataFrame pipeline (Figure 2 offline stage); otherwise driver-side.
    */
  def embedLake(lake: Lake, enc: ColumnEncoder,
                spark: Option[SparkSession] = None): Embedded = {
    val ordered: IndexedSeq[(String, IndexedSeq[Array[Float]])] = spark match {
      case Some(s) =>
        val cellDf = TableModel.toCellDf(s, lake.tables)
        val m = Encoder.collectEmbeddings(Encoder.inferDf(s, cellDf, enc))
        lake.tables.map(t => t.id -> m(t.id))
      case None =>
        lake.tables.map(t => t.id -> enc.encodeTable(t))
    }
    Embedded(enc.name, ordered)
  }

  // ---- online stage --------------------------------------------------------

  /** The four design choices of Table 5 / Fig 10; `name` is the technique
    * label every rendered table shows.
    */
  sealed abstract class Mode(val name: String)
  case object Linear  extends Mode("Linear")
  case object Pruning extends Mode("Pruning")
  case object Lsh     extends Mode("LSH")
  case object HnswIdx extends Mode("HNSW")
  val Modes: Seq[Mode] = Seq(Linear, Pruning, Lsh, HnswIdx)

  def buildIndex(emb: Embedded, mode: Mode): Option[Search.ColumnIndex] = mode match {
    case Lsh     => Some(Search.buildColumnIndex(emb.lake, d => new SimHashLsh(d, seed = 7)))
    case HnswIdx => Some(Search.buildColumnIndex(emb.lake, d => new Hnsw(d, seed = 7)))
    case _       => None
  }

  /** The one search-mode dispatch: answers query `q` under `mode`, using the
    * index `buildIndex` made for that mode.
    */
  private def query(searcher: UnionSearcher, mode: Mode, index: Option[Search.ColumnIndex],
                    q: IndexedSeq[Array[Float]], k: Int): Search.Result = mode match {
    case Linear        => searcher.queryLinear(q, k)
    case Pruning       => searcher.queryPruning(q, k)
    case Lsh | HnswIdx => searcher.queryWithIndex(q, k, index.get)
  }

  /** Evaluate one embedding-based method on a lake under a search mode. */
  def evalEmbedding(lake: Lake, emb: Embedded, k: Int, mode: Mode): EvalRow = {
    val searcher = new UnionSearcher(emb.lake, DefaultTau)
    val index    = buildIndex(emb, mode)
    summarize(lake.name, emb.method, k, lake.queries.map { qid =>
      val res = query(searcher, mode, index, emb.byId(qid), k)
      (res.ranked.map(_._1), lake.groundTruth(qid), res.elapsedNanos, res.verifications)
    })
  }

  /** Evaluate the D3L baseline (its own pairwise scorer, linear scan). */
  def evalD3L(lake: Lake, k: Int): EvalRow = {
    val byId     = lake.tables.map(t => t.id -> t).toMap
    val searcher = new D3L.Searcher(lake.tables)
    summarize(lake.name, "d3l", k, lake.queries.map { qid =>
      val t0  = System.nanoTime()
      val res = searcher.query(byId(qid), k)
      (res.map(_._1), lake.groundTruth(qid), System.nanoTime() - t0, lake.tables.size.toLong)
    })
  }

  /** Evaluate the SANTOS baseline (KB classes + relationships). */
  def evalSantos(lake: Lake, k: Int, kbCoverage: Double): EvalRow = {
    val byId     = lake.tables.map(t => t.id -> t).toMap
    val santos   = SantosLike.build(lake, kbCoverage)
    val searcher = new santos.Searcher(lake.tables)
    summarize(lake.name, "santos", k, lake.queries.map { qid =>
      val t0  = System.nanoTime()
      val res = searcher.query(byId(qid), k)
      (res.map(_._1), lake.groundTruth(qid), System.nanoTime() - t0, lake.tables.size.toLong)
    })
  }

  private def summarize(bench: String, method: String, k: Int,
      perQuery: Seq[(Seq[String], Set[String], Long, Long)]): EvalRow = {
    val maps   = perQuery.map { case (r, gt, _, _) => Metrics.apAtK(r, gt, k) }
    val ps     = perQuery.map { case (r, gt, _, _) => Metrics.precisionAtK(r, gt, k) }
    val rs     = perQuery.map { case (r, gt, _, _) => Metrics.recallAtK(r, gt, k) }
    val ideals = perQuery.map { case (_, gt, _, _) => Metrics.idealRecallAtK(gt, k) }
    val times  = perQuery.map(_._3.toDouble / 1e6)
    val vers   = perQuery.map(_._4.toDouble)
    EvalRow(bench, method, k, Metrics.mean(maps), Metrics.mean(ps), Metrics.mean(rs),
            Metrics.mean(ideals), Metrics.mean(times), Metrics.mean(vers))
  }

  // ---- composite experiments ----------------------------------------------

  /** Table 3: all six methods on one effectiveness benchmark, with the lake
    * and models that Tables 4, 5 and 8 reuse.
    */
  final case class Effectiveness(profile: Profile, lake: Lake, models: LakeModels,
                                 rows: Seq[EvalRow])

  def effectiveness(profile: Profile, spark: Option[SparkSession] = None,
                    trainCfg: Contrastive.TrainConfig = Contrastive.TrainConfig())
      : Effectiveness = {
    val lake   = LakeGen.generate(profile.cfg)
    val models = trainModels(lake, profile, trainCfg)
    val k      = profile.k
    def exact(enc: ColumnEncoder) = evalEmbedding(lake, embedLake(lake, enc, spark), k, Pruning)
    val rows = Seq(exact(models.singleCol), exact(models.sato), exact(models.sherlock)) ++
      (if (profile.santosAvailable) Seq(evalSantos(lake, k, profile.santosKbCoverage)) else Nil) ++
      Seq(evalD3L(lake, k), exact(models.starmie))
    Effectiveness(profile, lake, models, rows)
  }

  /** Tables 5/8: the four design choices for a given embedding. */
  def designChoices(lake: Lake, emb: Embedded, k: Int): Seq[(Mode, EvalRow)] =
    Modes.map(mode => mode -> evalEmbedding(lake, emb, k, mode))

  /** Table 4: MAP vs number of negative classes on micro-lakes. The encoder
    * is re-trained *on each micro-lake* — that is the experiment's point:
    * with few classes, two random tables are often unionable, so the
    * contrastive "random negatives" assumption is violated during training.
    */
  def negativeClasses(base: Lake, feat: Featurizer,
                      nNegClasses: Seq[Int] = 2 to 9,
                      trainCfg: Contrastive.TrainConfig =
                        Contrastive.TrainConfig(maxSteps = 500, epochs = 10))
      : Seq[(Int, Double, Double)] = {
    nNegClasses.map { c =>
      val micro = LakeGen.microLake(base, c)
      val w     = Contrastive.trainMultiColumn(micro.tables, feat, trainCfg)
      val microEmb = embedLake(micro, new StarmieEncoder(feat, w))
      val r60  = evalEmbedding(micro, microEmb, 60, Pruning)
      val r120 = evalEmbedding(micro, microEmb, 120, Pruning)
      (c, r60.map, r120.map)
    }
  }

  /** Table 6: memory usage of the design choices relative to lake size. */
  final case class MemoryRow(method: String, memBytes: Long, overheadPct: Double)
  def memoryOverhead(lake: Lake, emb: Embedded): Seq[MemoryRow] = {
    val dim = emb.lake.head._2.head.length
    val embBytes = lake.totalColumns.toLong * dim * 4L
    val lsh  = buildIndex(emb, Lsh).get
    val hnsw = buildIndex(emb, HnswIdx).get
    val lakeBytes = lake.sizeBytes.toDouble
    Seq(
      MemoryRow("No Index", embBytes, 100.0 * embBytes / lakeBytes),
      MemoryRow("LSH Index", lsh.memoryBytes, 100.0 * lsh.memoryBytes / lakeBytes),
      MemoryRow("HNSW Index", hnsw.memoryBytes, 100.0 * hnsw.memoryBytes / lakeBytes),
    )
  }

  /** Fig 10: average query time of the four design choices as the lake
    * grows. Returns (size, mode, avgMillis, avgVerifications).
    */
  def scalability(lake: Lake, emb: Embedded, k: Int, sizes: Seq[Int],
                  nQueries: Int = 10): Seq[(Int, String, Double, Double)] = {
    val queries = lake.queries.take(nQueries)
    sizes.flatMap { n =>
      val subset    = emb.lake.take(n)
      val subsetIds = subset.map(_._1).toSet
      // every query must be present in the sub-lake
      val subLake = subset ++ queries.filterNot(subsetIds.contains).map(q => q -> emb.byId(q))
      val subEmb  = Embedded(emb.method, subLake)
      val searcher = new UnionSearcher(subEmb.lake, DefaultTau)
      Modes.map { mode =>
        val index   = buildIndex(subEmb, mode)
        val results = queries.map(qid => query(searcher, mode, index, emb.byId(qid), k))
        val ms  = results.map(_.elapsedNanos.toDouble / 1e6)
        val ver = results.map(_.verifications.toDouble)
        (n, mode.name, Metrics.mean(ms), Metrics.mean(ver))
      }
    }
  }
}
