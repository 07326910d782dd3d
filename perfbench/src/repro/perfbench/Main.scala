package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Starmie benchmark: one workload, one JVM, one result line.
  *
  * A run sets the system up `SetupReps` times, each on a lake of its own
  * drawn from `--seed` (Spark start, lake generation, contrastive training,
  * Spark inference, LSH and HNSW builds, warm-up). After each set-up, a
  * single closed-loop client sends seeded queries for a third of
  * `--seconds`, rotating over Pruning, Linear, HNSW and LSH so that each
  * mode gets an equal share of the time; then every output is checked.
  * `--trace 1` wraps calls into each layer in spans, adds the per-layer
  * measurements of [[Layers]], writes the spans to .bench_out/ and reports
  * per-layer metrics instead of end-to-end ones.
  */
object Main {

  val SetupReps = 3

  final case class Opts(workload: String = "", seed: Long = 1, seconds: Int = 20,
                        trace: Boolean = false)

  @annotation.tailrec
  def parse(args: List[String], o: Opts = Opts()): Opts = args match {
    case "--workload" :: v :: rest => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest     => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest  => parse(rest, o.copy(seconds = v.toInt))
    case "--trace" :: v :: rest    => parse(rest, o.copy(trace = v == "1"))
    case Nil                       => o
    case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
  }

  def main(args: Array[String]): Unit = {
    val code =
      try run(parse(args.toList))
      catch { case e: Throwable => e.printStackTrace(); 1 }
    System.out.flush()
    System.exit(code)
  }

  /** name, value, unit */
  type Metric = (String, Double, String)

  def run(o: Opts): Int = {
    val checks = new Checks
    SelfTest.run(checks)
    val wl     = Workloads.byName(o.workload)
    val outDir = sys.props.getOrElse("perfbench.outDir", ".bench_out")
    val tracer = new Tracer

    // Set-ups and slices of the timed loop alternate, so that both sample
    // the whole run rather than one stretch of a shared host's load. Each
    // set-up draws its own lake, so that a run's latencies and MAP average
    // over three lakes: a query's cost follows its lake, and one lake per
    // run left the LSH tail varying from seed to seed by up to twofold.
    val loop  = new Loop.Result(Modes.names.size)
    val slice = o.seconds.toDouble / SetupReps
    val maps  = mutable.ArrayBuffer[IndexedSeq[Double]]()
    val lakes = mutable.ArrayBuffer[(String, Any)]()
    var engine: Engine = null
    var heapMb = 0.0
    val reps = (0 until SetupReps).map { r =>
      engine = null // let the previous set-up be collected
      val lakeSeed = o.seed * SetupReps + r
      val rep = Engine.setUp(wl, lakeSeed, r, outDir, tracer, checks)
      engine = rep.engine
      if (r == SetupReps - 1) heapMb = liveHeapMb()
      Loop.run(engine, slice, checks, if (o.trace) Some(tracer) else None, loop)
      engine.check(checks)
      maps += Modes.names.indices.map(engine.map)
      lakes += s"setup$r" -> Seq("seed" -> lakeSeed, "tables" -> engine.lake.tables.size,
                                 "columns" -> engine.lake.totalColumns)
      rep.copy(engine = null)
    }

    val stamp: Seq[(String, Any)] = Seq(
      "git_rev" -> sys.props.getOrElse("perfbench.gitRev", "none"),
      "source_sha256" -> sys.props.getOrElse("perfbench.sourceSha", "none"),
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
      "jvm_max_heap_mb" -> Runtime.getRuntime.maxMemory() / (1 << 20),
      "jvm_args" -> ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
        .filter(_.startsWith("-X")).mkString(" "),
      "spark_master" -> reps.last.sparkMaster,
      "spark_default_parallelism" -> reps.last.sparkParallelism,
      "workload" -> wl.name, "seed" -> o.seed, "seconds" -> o.seconds,
      "trace" -> o.trace, "setup_reps" -> SetupReps,
      "train_max_steps" -> Workloads.Train.maxSteps,
      "lakes" -> lakes.toSeq,
      "queries" -> engine.queryIds.size, "k" -> Workloads.K,
      "timed_queries" -> Modes.names.indices.map(m => Modes.names(m) -> loop.count(m)))
    println("stamp " + Json.obj(stamp))

    val metrics =
      if (o.trace) {
        val m = perLayer(engine, reps, tracer, loop, o.seed)
        Trace.write(new File(outDir, s"spans-${wl.name}-seed${o.seed}.json"), stamp, tracer.all)
        printTable(wl, engine, loop, m)
        m
      } else endToEnd(maps.toSeq, reps.indices, tracer, heapMb, loop)
    println(result(checks, metrics))
    0
  }

  /** `maps(r)(mode)` is the MAP@k of a mode on the lake of set-up r. */
  private def endToEnd(maps: Seq[IndexedSeq[Double]], reps: Range, tracer: Tracer,
                       heapMb: Double, loop: Loop.Result): Seq[Metric] = {
    val setupS  = reps.map(r => tracer.seconds(s"setup$r", "setup"))
    val ingestS = reps.map(r => Engine.IngestStages.map(tracer.seconds(s"setup$r", _)).sum)
    val tails = Modes.names.indices.map(m => Stats.tail(loop.latMs(m), 99))
    println("setup " + Json.obj(reps.map { r =>
      s"setup$r" -> (("setup" +: Engine.IngestStages) ++ Seq("encoder.spark_start", "warmup"))
        .map(st => st -> tracer.seconds(s"setup$r", st))
    }))
    println("tail " + Json.obj(Modes.names.indices.map { m =>
      Modes.names(m) -> Seq("percentile" -> tails(m)._2, "samples" -> tails(m)._3)
    }))
    Seq[Metric](
      ("setup_s", Stats.median(setupS), "s"),
      ("ingest_s", Stats.median(ingestS), "s"),
      ("live_heap_mb", heapMb, "MB")) ++
    Modes.names.indices.flatMap { m =>
      Seq[Metric](
        (s"${Modes.names(m)}_ms_p50", Stats.median(loop.latMs(m)), "ms"),
        (s"${Modes.names(m)}_ms_p99", tails(m)._1, "ms"))
    } ++ Seq[Metric](
      ("map_exact", Stats.mean(maps.map(_(Modes.Pruning))), "MAP"),
      ("map_hnsw", Stats.mean(maps.map(_(Modes.HnswMode))), "MAP"),
      ("map_lsh", Stats.mean(maps.map(_(Modes.LshMode))), "MAP"))
  }

  /** Stage times are medians over the set-ups and loop spans pool all of
    * them; counts, unit costs and recall are taken on `e`, the last set-up.
    */
  private def perLayer(e: Engine, reps: Seq[Engine.Rep], tracer: Tracer,
                       loop: Loop.Result, seed: Long): Seq[Metric] = {
    def med(stage: String) = Stats.median(reps.indices.map(r => tracer.seconds(s"setup$r", stage)))
    def perQuery(mode: Int, f: repro.core.Search.Result => Double) =
      Stats.mean(e.refs(mode).toSeq.map(f))
    val cols    = e.lake.totalColumns.toDouble
    val replay  = Layers.replayTraining(e, Workloads.Train, tracer)
    val unit    = Layers.unitCosts(e, tracer)
    val pruneUs = Stats.mean(loop.latMs(Modes.Pruning)) * 1e3
    val pCands  = perQuery(Modes.Pruning, _.candidates.toDouble)
    val pVerif  = perQuery(Modes.Pruning, _.verifications.toDouble)
    val boundShare  = pCands * (unit.simUs + unit.boundsUs) / pruneUs
    val verifyShare = pVerif * unit.verifyUs / pruneUs
    def probeUs(m: Int) = Stats.mean(tracer.byName(s"index.${Modes.names(m)}.probe").map(_.nanos / 1e3))
    def probeShare(m: Int) =
      tracer.byName(s"index.${Modes.names(m)}.probe").map(_.nanos).sum.toDouble /
        tracer.byName(s"search.${Modes.names(m)}").map(_.nanos).sum
    val overhead = Stats.mean(Modes.names.indices.map { m =>
      Stats.median(loop.tracedMs(m)) / Stats.median(loop.latMs(m)) - 1.0
    })

    Seq[Metric](
      ("lake.gen_s", med("lake.gen"), "s"),
      ("encoder.spark_start_s", med("encoder.spark_start"), "s"),
      ("contrastive.train_s", med("contrastive.train"), "s"),
      ("encoder.infer_s", med("encoder.infer"), "s"),
      ("lsh.build_s", med("lsh.build"), "s"),
      ("hnsw.build_s", med("hnsw.build"), "s"),
      ("hnsw.build_us_per_vector", med("hnsw.build") * 1e6 / cols, "us"),
      ("hnsw.memory_bytes", e.hnsw.memoryBytes.toDouble, "bytes"),
      ("lsh.memory_bytes", e.lsh.memoryBytes.toDouble, "bytes"),
      ("encoder.spark_stages", Stats.median(reps.map(_.spark.stages.toDouble)), "count"),
      ("encoder.spark_task_s", Stats.median(reps.map(_.spark.taskRunMs / 1e3)), "s"),
      ("encoder.shuffle_write_bytes",
        Stats.median(reps.map(_.spark.shuffleWriteBytes.toDouble)), "bytes"),
      ("featurizer.table_inputs_us_per_table", Layers.tableInputsUs(e, tracer), "us"),
      ("augment.drop_col_us_per_table", Layers.dropColUs(e, seed, tracer), "us"),
      ("contrastive.step_ms_p50", replay.stepMsP50, "ms"),
      ("contrastive.step_inputs_mean", replay.inputsMean, "count"),
      ("contrastive.featurize_share", replay.featurizeShare, "fraction"),
      ("search.pruning.verifications_per_query", pVerif, "count"),
      ("search.pruning.verified_frac", pVerif / pCands, "fraction"),
      ("search.linear.verifications_per_query",
        perQuery(Modes.Linear, _.verifications.toDouble), "count"),
      ("matching.sim_matrix_us_per_table", unit.simUs, "us"),
      ("bounds.lb_ub_us_per_table", unit.boundsUs, "us"),
      ("matching.verify_us_per_table", unit.verifyUs, "us"),
      ("search.pruning.bound_share", boundShare, "fraction"),
      ("search.pruning.verify_share", verifyShare, "fraction"),
      ("search.pruning.other_share", 1.0 - boundShare - verifyShare, "fraction")) ++
    Seq(Modes.HnswMode, Modes.LshMode).flatMap { m =>
      val n = Modes.names(m)
      Seq[Metric](
        (s"index.$n.probe_us_per_query", probeUs(m), "us"),
        (s"index.$n.candidates_per_query", perQuery(m, _.candidates.toDouble), "count"),
        (s"search.$n.verifications_per_query", perQuery(m, _.verifications.toDouble), "count"),
        (s"search.$n.probe_share", probeShare(m), "fraction"),
        (s"index.$n.candidate_recall", Layers.candidateRecall(e, m), "fraction"))
    } ++ Modes.names.indices.map { m =>
      (s"search.${Modes.names(m)}.timed_queries", loop.count(m).toDouble, "count"): Metric
    } ++ Seq[Metric](
      ("jvm.gc_s", loop.gcS, "s"),
      ("trace.overhead_frac", overhead, "fraction"))
  }

  /** Heap still in use after a full collection, in MB. */
  private def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  /** The per-layer table in the shape of the ROADMAP's hand-taken baseline:
    * the offline stages of one set-up, then 20 queries of each mode at their
    * mean latency, with the Pruning split from the unit costs.
    */
  private def printTable(wl: Workload, e: Engine, loop: Loop.Result, ms: Seq[Metric]): Unit = {
    val m       = ms.map(x => x._1 -> x._2).toMap
    val tables  = e.lake.tables.size
    def q20(mode: Int) = 20 * Stats.mean(loop.latMs(mode))
    val simMs   = 20 * tables * m("matching.sim_matrix_us_per_table") / 1e3
    val boundMs = simMs + 20 * tables * m("bounds.lb_ub_us_per_table") / 1e3
    val replay  = Layers.ReplaySteps
    val rows = Seq(
      "featurize all tables" -> f"${m("featurizer.table_inputs_us_per_table") * tables / 1e6}%.2f s",
      "train multi-column encoder" -> f"${m("contrastive.train_s")}%.2f s",
      "embed (Spark `inferDf`)" -> f"${m("encoder.infer_s")}%.2f s",
      "build LSH / HNSW" -> f"${m("lsh.build_s")}%.2f s / ${m("hnsw.build_s")}%.2f s",
      "20 q Linear" -> f"${q20(Modes.Linear)}%.0f ms",
      "20 q Pruning (tables verified per query)" ->
        f"${q20(Modes.Pruning)}%.0f ms (${m("search.pruning.verifications_per_query")}%.1f of $tables)",
      "20 q of which: sim matrices / + LB+UB" -> f"$simMs%.0f / $boundMs%.0f ms",
      "20 q LSH / HNSW" -> f"${q20(Modes.LshMode)}%.0f / ${q20(Modes.HnswMode)}%.0f ms",
      s"$replay training batches (inputs on average): featurize share / step p50" ->
        f"${m("contrastive.step_inputs_mean")}%.0f inputs: ${100 * m("contrastive.featurize_share")}%.0f%% / ${m("contrastive.step_ms_p50")}%.1f ms")
    println(s"| Layer | ${wl.name} ($tables tables, ${e.lake.totalColumns} cols) |")
    println("|---|---|")
    rows.foreach { case (k, v) => println(s"| $k | $v |") }
  }

  def result(checks: Checks, metrics: Seq[Metric]): String =
    Json.obj(Seq(
      "correct" -> (checks.failed == 0),
      "attempted" -> checks.attempted,
      "failed" -> checks.failed,
      "metrics" -> metrics.map { case (n, v, u) => n -> Seq("value" -> v, "unit" -> u) }))
}

/** The timed closed loop: one client, next query only after the last one
  * returned; the mode that has used the least time so far goes next.
  */
object Loop {

  final class Result(n: Int) {
    val used = new Array[Long](n)
    val next = new Array[Int](n)
    var seq  = 0
    val latMs: Array[mutable.ArrayBuffer[Double]]    = Array.fill(n)(mutable.ArrayBuffer())
    val tracedMs: Array[mutable.ArrayBuffer[Double]] = Array.fill(n)(mutable.ArrayBuffer())
    var gcS = 0.0
    def count(m: Int): Int = latMs(m).size + tracedMs(m).size
  }

  /** With a tracer, every second query of each mode runs traced, the odd
    * ones in one pass over the query tables and the even ones in the next,
    * so traced and untraced queries cover the same tables; the untraced
    * ones give the latencies the tracing overhead is measured against.
    */
  def run(e: Engine, seconds: Double, checks: Checks, tracer: Option[Tracer],
          res: Result): Unit = {
    import res.{used, next}
    val nm  = used.length
    val nq  = e.queryIds.size
    val gc0 = gcMillis()
    val end = System.nanoTime() + (seconds * 1e9).toLong
    while (System.nanoTime() < end) {
      var m = 0
      var i = 1
      while (i < nm) { if (used(i) < used(m)) m = i; i += 1 }
      val q = next(m) % nq
      val traced = tracer.isDefined && (next(m) + next(m) / nq) % 2 == 1
      next(m) += 1
      val t0 = System.nanoTime()
      val r  =
        if (traced) tracer.get.root(s"q${res.seq}", s"search.${Modes.names(m)}")(e.query(m, q))
        else e.query(m, q)
      val dt = System.nanoTime() - t0
      used(m) += dt
      (if (traced) res.tracedMs(m) else res.latMs(m)) += dt / 1e6
      if (traced && (m == Modes.HnswMode || m == Modes.LshMode)) probe(e, tracer.get, m, q, res.seq)
      e.record(m, q, r, checks)
      res.seq += 1
    }
    res.gcS += (gcMillis() - gc0) / 1e3
  }

  /** Times, outside the query's latency, the candidate probe that
    * `queryWithIndex` makes inside the traced index query `q`.
    */
  private def probe(e: Engine, tr: Tracer, m: Int, q: Int, seq: Int): Unit =
    tr.root(s"q$seq", s"index.${Modes.names(m)}.probe")(e.candidates(m, q))

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
}
