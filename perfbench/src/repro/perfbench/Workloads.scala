package repro.perfbench

import repro.core.Contrastive.TrainConfig
import repro.lake.Benchmarks
import repro.lake.LakeGen.LakeConfig

/** A benchmark workload: a lake shape from the paper's scalability
  * profiles, scaled so that a run (three set-ups plus the timed queries)
  * fits the time budget of one benchmark run.
  */
final case class Workload(name: String, lake: Long => LakeConfig)

object Workloads {

  /** The default TrainConfig with a shorter schedule: three trainings per
    * run must fit the run's budget. The step itself is unchanged.
    */
  val Train: TrainConfig = TrainConfig(maxSteps = 80)
  /** seeded query tables of the timed loop, and how many warm up each mode */
  val Queries = 500
  val WarmUpQueries = 100
  /** top-k of every query, as in the paper's SANTOS benchmarks */
  val K = 10

  val all: Seq[Workload] = Seq(
    // SANTOS Large shape: 4–8 wide columns, 20 rows; exact search is
    // dominated by similarity matrices, bounds and Hungarian matching.
    Workload("santos-wide",
      seed => Benchmarks.santosLarge(600).cfg.copy(seed = seed)),
    // WDC shape: many tiny web tables (3–5 columns, 14 rows); index probe
    // and HNSW build dominate, Linear scans many small tables.
    Workload("wdc-tiny",
      seed => Benchmarks.wdc(1000).cfg.copy(seed = seed)),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}
