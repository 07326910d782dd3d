package repro.perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerStageCompleted, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.exp.Experiments
import repro.index.{Hnsw, SimHashLsh, VectorIndex}
import repro.lake.LakeGen
import repro.lake.LakeGen.Lake

/** Counts checked outcomes; every failed check is one failed operation. */
final class Checks {
  var attempted = 0L
  var failed    = 0L
  def apply(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (failed <= 20) Console.err.println(s"[perfbench] check failed: $what")
    }
  }
}

/** Work the encoder's Spark job did, from a listener the benchmark adds. */
final class SparkStats extends SparkListener {
  @volatile var stages = 0
  @volatile var taskRunMs = 0L
  @volatile var shuffleWriteBytes = 0L
  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    synchronized { stages += 1 }
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      taskRunMs += m.executorRunTime
      shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }
}

/** The four search modes of paper Table 5, in the order the loop uses. */
object Modes {
  val Pruning = 0; val Linear = 1; val HnswMode = 2; val LshMode = 3
  val names: IndexedSeq[String] = IndexedSeq("pruning", "linear", "hnsw", "lsh")
}

/** The Starmie system after set-up: an embedded lake, its searcher and both
  * column indexes. `refs(mode)(q)` is the first answer to seeded query q in
  * that mode, so every later answer must repeat it. The timed loop fills it
  * and [[check]] completes it.
  */
final class Engine(val lake: Lake, val queryIds: IndexedSeq[String],
                   val feat: Featurizer,
                   val emb: IndexedSeq[(String, IndexedSeq[Array[Float]])],
                   val searcher: UnionSearcher,
                   val hnsw: Search.ColumnIndex, val lsh: Search.ColumnIndex) {
  import Engine._

  val refs: Array[Array[Search.Result]] =
    Array.fill(Modes.names.size)(new Array[Search.Result](queryIds.size))

  private val byId = emb.toMap
  val queryEmb: IndexedSeq[IndexedSeq[Array[Float]]] = queryIds.map(byId)
  val tau: Double = Experiments.DefaultTau

  def query(mode: Int, q: Int): Search.Result = mode match {
    case Modes.Pruning  => searcher.queryPruning(queryEmb(q), Workloads.K)
    case Modes.Linear   => searcher.queryLinear(queryEmb(q), Workloads.K)
    case Modes.HnswMode => searcher.queryWithIndex(queryEmb(q), Workloads.K, hnsw, Probe)
    case Modes.LshMode  => searcher.queryWithIndex(queryEmb(q), Workloads.K, lsh, Probe)
  }

  def index(mode: Int): Search.ColumnIndex = if (mode == Modes.HnswMode) hnsw else lsh

  def candidates(mode: Int, q: Int): IndexedSeq[String] =
    index(mode).candidateTables(queryEmb(q), tau, Probe)

  /** Warm-up: the first `n` seeded queries once in every mode. */
  def warmUp(n: Int): Unit =
    Modes.names.indices.foreach(m => (0 until math.min(n, queryIds.size)).foreach(query(m, _)))

  /** candidate sets of the index modes per query, filled by [[check]] */
  val cands: Array[Array[IndexedSeq[String]]] =
    Array.fill(Modes.names.size)(new Array[IndexedSeq[String]](queryIds.size))

  /** Records the first answer of (mode, q) and checks a repeat against it. */
  def record(mode: Int, q: Int, r: Search.Result, checks: Checks): Unit =
    if (refs(mode)(q) == null) refs(mode)(q) = r
    else checks(r.ranked == refs(mode)(q).ranked,
      s"${Modes.names(mode)} answer for ${queryIds(q)} changed on a repeat")

  /** Output checks over every seeded query in every mode, after the timed
    * loop: queries it did not reach run here.
    */
  def check(checks: Checks): Unit = {
    val nTables = emb.size
    queryIds.indices.foreach { q =>
      val qid = queryIds(q)
      Modes.names.indices.foreach { m =>
        if (refs(m)(q) == null) refs(m)(q) = query(m, q)
      }
      checks(refs(Modes.Pruning)(q).ranked == refs(Modes.Linear)(q).ranked,
        s"Pruning != Linear for $qid")
      Modes.names.indices.foreach { m =>
        val r = refs(m)(q)
        checks(r.ranked.forall(e => !e._2.isNaN && !e._2.isInfinite),
          s"${Modes.names(m)}: non-finite score for $qid")
        val expected =
          if (m == Modes.Pruning || m == Modes.Linear) math.min(Workloads.K, nTables)
          else math.min(Workloads.K, r.candidates)
        checks(r.ranked.size == expected,
          s"${Modes.names(m)}: ${r.ranked.size} results for $qid, expected $expected")
      }
      Seq(Modes.HnswMode, Modes.LshMode).foreach { m =>
        cands(m)(q) = candidates(m, q)
        val cs = cands(m)(q).toSet
        checks(refs(m)(q).candidates == cs.size,
          s"${Modes.names(m)}: candidate count differs for $qid")
        refs(m)(q).ranked.foreach { case (tid, score) =>
          checks(cs.contains(tid), s"${Modes.names(m)}: $tid outside candidates of $qid")
          checks(searcher.verify(queryEmb(q), tid) == score,
            s"${Modes.names(m)}: score of $tid differs from verify for $qid")
        }
      }
    }
  }

  /** MAP@k of a mode's reference answers against the lake's ground truth. */
  def map(mode: Int): Double =
    Metrics.mapAtK(queryIds.indices.map { q =>
      (refs(mode)(q).ranked.map(_._1), lake.groundTruth(queryIds(q)))
    }, Workloads.K)
}

object Engine {
  /** index probe width of `UnionSearcher.queryWithIndex` (its default) */
  val Probe = 64
  /** seed of both indexes, as `Experiments.buildIndex` uses */
  val IndexSeed = 7L
  /** tables whose Spark embedding is compared with `encodeTable` */
  val EncodeCheckSample = 20

  /** Span names of the set-up stages that make up ingest. */
  val IngestStages: Seq[String] =
    Seq("contrastive.train", "encoder.infer", "lsh.build", "hnsw.build")

  /** Outcome of one set-up; `sparkMaster`/`sparkParallelism` describe the
    * Spark session the encoder ran on.
    */
  final case class Rep(engine: Engine, spark: SparkStats,
                       sparkMaster: String, sparkParallelism: Int)

  def startSpark(outDir: String): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.local.dir", s"$outDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$outDir/spark-warehouse")
      .getOrCreate()
  }

  /** One complete set-up under the root span "setup" of trace `setup<rep>`:
    * Spark start, generation of the lake `seed`, training, Spark inference,
    * both index builds and the warm-up pass, each in a span of its own.
    * Output checks go to `checks`.
    */
  def setUp(wl: Workload, seed: Long, rep: Int, outDir: String, tracer: Tracer,
            checks: Checks): Rep =
    tracer.root(s"setup$rep", "setup") {
      val spark = tracer.span("encoder.spark_start")(startSpark(outDir))
      val lake  = tracer.span("lake.gen")(LakeGen.generate(wl.lake(seed)))
      require(lake.tables.size >= Workloads.Queries,
        s"${wl.name}: ${lake.tables.size} tables, fewer than ${Workloads.Queries} queries")
      val queryIds = new scala.util.Random(seed * 1000003L + 17)
        .shuffle(lake.tables.map(_.id)).take(Workloads.Queries).toIndexedSeq

      val feat = new Featurizer()
      val w = tracer.span("contrastive.train")(
        Contrastive.trainMultiColumn(lake.tables, feat, Workloads.Train))
      val enc = new StarmieEncoder(feat, w)

      val stats = new SparkStats
      spark.sparkContext.addSparkListener(stats)
      val embMap = tracer.span("encoder.infer")(
        Encoder.collectEmbeddings(
          Encoder.inferDf(spark, TableModel.toCellDf(spark, lake.tables), enc)))
      val master      = spark.sparkContext.master
      val parallelism = spark.sparkContext.defaultParallelism
      tracer.span("encoder.spark_stop")(spark.stop()) // drains the listener bus

      checks(lake.tables.forall(t => embMap.contains(t.id)), "a table has no embedding")
      val emb = lake.tables.map(t => t.id -> embMap.getOrElse(t.id, IndexedSeq.empty))
      emb.foreach { case (tid, cols) =>
        cols.foreach { v =>
          val n = Linalg.norm(v)
          checks(v.forall(x => !x.isNaN && !x.isInfinite) && math.abs(n - 1.0f) < 1e-4f,
            s"embedding of $tid is not finite and unit-norm (norm $n)")
        }
      }
      new scala.util.Random(seed).shuffle(lake.tables).take(EncodeCheckSample).foreach { t =>
        val a = enc.encodeTable(t)
        val b = embMap.getOrElse(t.id, IndexedSeq.empty)
        checks(a.size == b.size && a.indices.forall(i => a(i).sameElements(b(i))),
          s"inferDf differs from encodeTable for ${t.id}")
      }

      var hnswIndex: VectorIndex = null
      var lshIndex: VectorIndex  = null
      val lsh = tracer.span("lsh.build")(Search.buildColumnIndex(emb, d => {
        lshIndex = new SimHashLsh(d, seed = IndexSeed); lshIndex }))
      val hnsw = tracer.span("hnsw.build")(Search.buildColumnIndex(emb, d => {
        hnswIndex = new Hnsw(d, seed = IndexSeed); hnswIndex }))
      checks(lshIndex.size == lake.totalColumns,
        s"LSH holds ${lshIndex.size} vectors, lake has ${lake.totalColumns} columns")
      checks(hnswIndex.size == lake.totalColumns,
        s"HNSW holds ${hnswIndex.size} vectors, lake has ${lake.totalColumns} columns")

      val engine = new Engine(lake, queryIds, feat, emb,
        new UnionSearcher(emb, Experiments.DefaultTau), hnsw, lsh)
      tracer.span("warmup")(engine.warmUp(Workloads.WarmUpQueries))
      Rep(engine, stats, master, parallelism)
    }
}
