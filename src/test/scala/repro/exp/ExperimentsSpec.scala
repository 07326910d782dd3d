package repro.exp

import repro.SparkSpec
import repro.core.Contrastive
import repro.lake.Benchmarks.Profile
import repro.lake.LakeGen.LakeConfig

class ExperimentsSpec extends SparkSpec {

  /** tiny profile so the full pipeline runs in seconds */
  private val tiny = Profile(
    LakeConfig(name = "tiny", nTemplates = 8, derivedPerTemplate = 8,
      arityMin = 3, arityMax = 5, sharedTypesPerTemplate = 2, nSharedSurfaces = 4,
      rowsPerDerived = 20, poolSize = 50, colKeepFraction = 0.8,
      nQueries = 8, noise = 0.03, seed = 77),
    k = 5, sherlockKnownFraction = 0.7, santosKbCoverage = 0.8, santosAvailable = true)

  private val quickTrain = Contrastive.TrainConfig(
    embedDim = 32, batchTables = 6, epochs = 8, maxSteps = 80)

  private lazy val full = Experiments.effectiveness(tiny, None, quickTrain)

  test("effectiveness produces a row per method") {
    assert(full.rows.map(_.method).toSet ==
      Set("starmie", "singlecol", "sato", "sherlock", "santos", "d3l"))
  }

  test("all metric values are within [0,1]") {
    full.rows.foreach { r =>
      assert(r.map >= 0 && r.map <= 1, r)
      assert(r.p >= 0 && r.p <= 1, r)
      assert(r.r >= 0 && r.r <= 1 + 1e-9, r)
      assert(r.r <= r.ideal + 1e-9, r)
    }
  }

  test("starmie is competitive with every baseline at tiny scale") {
    val starmie = full.rows.find(_.method == "starmie").get.map
    full.rows.filterNot(_.method == "starmie").foreach { r =>
      assert(starmie >= r.map - 0.15, s"starmie $starmie vs ${r.method} ${r.map}")
    }
  }

  test("santosAvailable=false drops the santos row") {
    val noSantos = tiny.copy(santosAvailable = false)
    val res = Experiments.effectiveness(noSantos, None, quickTrain)
    assert(!res.rows.exists(_.method == "santos"))
  }

  test("Linear and Pruning design choices agree on MAP") {
    val emb = Experiments.embedLake(full.lake, full.models.starmie)
    val rows = Experiments.designChoices(full.lake, emb, tiny.k).toMap
    val linear  = rows(Experiments.Linear)
    val pruning = rows(Experiments.Pruning)
    assert(math.abs(linear.map - pruning.map) < 1e-9)
    assert(pruning.avgVerifications < linear.avgVerifications)
  }

  test("index design choices trade bounded effectiveness for speed") {
    val emb = Experiments.embedLake(full.lake, full.models.starmie)
    val rows = Experiments.designChoices(full.lake, emb, tiny.k).toMap
    val linear = rows(Experiments.Linear)
    val hnsw   = rows(Experiments.HnswIdx)
    assert(hnsw.map >= linear.map - 0.3)
  }

  test("negativeClasses sweeps the configured class counts") {
    val sweep = Experiments.negativeClasses(full.lake, full.models.feat, Seq(2, 4, 6),
      quickTrain.copy(maxSteps = 30, epochs = 4))
    assert(sweep.map(_._1) == Seq(2, 4, 6))
    sweep.foreach { case (_, m60, m120) =>
      assert(m60 >= 0 && m60 <= 1 && m120 >= 0 && m120 <= 1)
    }
  }

  test("memoryOverhead reports all three design choices") {
    val emb = Experiments.embedLake(full.lake, full.models.starmie)
    val rows = Experiments.memoryOverhead(full.lake, emb)
    assert(rows.map(_.method) == Seq("No Index", "LSH Index", "HNSW Index"))
    rows.foreach(r => assert(r.memBytes > 0 && r.overheadPct > 0))
    // index variants hold the vectors too, so they cost at least as much
    assert(rows(1).memBytes >= rows(0).memBytes)
    assert(rows(2).memBytes >= rows(0).memBytes)
  }

  test("scalability reports the four modes per size") {
    val emb = Experiments.embedLake(full.lake, full.models.starmie)
    val rows = Experiments.scalability(full.lake, emb, k = 5, sizes = Seq(16, 64), nQueries = 3)
    assert(rows.size == 8)
    assert(rows.map(_._2).distinct.toSet == Set("Linear", "Pruning", "LSH", "HNSW"))
    rows.foreach { case (_, _, ms, _) => assert(ms >= 0) }
  }

  test("Spark-pipeline embeddings equal driver embeddings end-to-end") {
    val viaSpark  = Experiments.embedLake(full.lake, full.models.starmie, Some(spark))
    val viaDriver = Experiments.embedLake(full.lake, full.models.starmie)
    assert(viaSpark.lake.map(_._1) == viaDriver.lake.map(_._1))
    viaSpark.lake.zip(viaDriver.lake).foreach { case ((_, a), (_, b)) =>
      a.zip(b).foreach { case (x, y) =>
        x.zip(y).foreach { case (p, q) => assert(math.abs(p - q) < 1e-5) }
      }
    }
  }
}
