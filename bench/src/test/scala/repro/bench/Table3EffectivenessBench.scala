package repro.bench

import repro.SparkSpec
import repro.exp.{Experiments, Tables}

/** Table 3 — MAP@k and R@k of all six methods on the three effectiveness
  * benchmarks (k=10 on SANTOS Small, k=60 on both TUS benchmarks).
  *
  * Paper numbers (MAP@k):
  *   SANTOS Small: Starmie .993, SANTOS .930, SingleCol .891, SATO .878,
  *                 Sherlock .782, D3L .523
  *   TUS Small:    Starmie .991, Sherlock .984, SATO .966, SingleCol .954,
  *                 SANTOS .885, D3L .794
  *   TUS Large:    Starmie .965, SATO .930, SingleCol .902, Sherlock .744,
  *                 D3L .484 (SANTOS n/a)
  * We assert the *shape*: Starmie on top everywhere, Starmie > SingleCol
  * (context matters), D3L weakest, SANTOS unavailable on TUS Large.
  */
class Table3EffectivenessBench extends SparkSpec {

  private def mapOf(res: Experiments.Effectiveness, method: String): Double =
    res.rows.find(_.method == method).get.map

  test("Table 3: effectiveness on all three benchmarks") {
    val results = Seq(BenchContext.santosSmall, BenchContext.tusSmall,
                      BenchContext.tusLarge)
    println("\n=== Table 3 (measured) ===")
    println(Tables.renderT3(results))

    results.foreach { res =>
      val starmie = mapOf(res, "starmie")
      res.rows.filterNot(_.method == "starmie").foreach { r =>
        assert(starmie >= r.map,
          s"[${res.lake.name}] starmie $starmie below ${r.method} ${r.map}")
      }
      // context matters: the multi-column encoder beats its SingleCol ablation
      assert(starmie > mapOf(res, "singlecol"),
        s"[${res.lake.name}] starmie should beat singlecol")
      // D3L's syntactic ensemble is the weakest method on every benchmark
      val d3l = mapOf(res, "d3l")
      res.rows.filterNot(_.method == "d3l").foreach { r =>
        assert(d3l <= r.map + 0.02,
          s"[${res.lake.name}] d3l $d3l should be weakest, ${r.method}=${r.map}")
      }
      // recall is bounded by IDEAL
      res.rows.foreach(r => assert(r.r <= r.ideal + 1e-9))
    }

    // SANTOS needs annotated intent columns — unavailable on TUS Large
    assert(!BenchContext.tusLarge.rows.exists(_.method == "santos"))
    assert(BenchContext.santosSmall.rows.exists(_.method == "santos"))

    // Starmie's MAP should be high in absolute terms, as in the paper
    results.foreach { res =>
      assert(mapOf(res, "starmie") >= 0.9,
        s"[${res.lake.name}] starmie MAP ${mapOf(res, "starmie")} below 0.9")
    }
  }
}
