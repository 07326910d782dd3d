package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.core.Contrastive
import repro.exp.{Experiments, Tables}
import repro.lake.{Benchmarks, LakeGen}

/** spark-submit entrypoints, one per paper table / figure. Each wraps the
  * same driver functions the bench suites assert on (repro.exp).
  *
  *   spark-submit --class repro.jobs.Table3Effectiveness repro.jar
  */
object JobUtil {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

object Table2Stats {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table2")
    try {
      val profiles = Benchmarks.effectiveness :+ Benchmarks.santosLarge() :+ Benchmarks.wdc(30000)
      println(Tables.renderT2(Tables.table2(profiles)))
    } finally spark.stop()
  }
}

object Table3Effectiveness {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table3")
    try {
      val results = Benchmarks.effectiveness.map(p => Experiments.effectiveness(p, Some(spark)))
      println(Tables.renderT3(results))
    } finally spark.stop()
  }
}

object Table4NegClasses {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table4")
    try {
      val res = Experiments.effectiveness(Benchmarks.tusSmall)
      println(Tables.renderT4(Experiments.negativeClasses(res.lake, res.models.feat)))
    } finally spark.stop()
  }
}

object Table5DesignChoices {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table5")
    try {
      val res = Experiments.effectiveness(Benchmarks.santosSmall, Some(spark))
      val emb = Experiments.embedLake(res.lake, res.models.starmie)
      println(Tables.renderT58(Tables.table58(res.lake, Seq(emb), res.profile.k)))
    } finally spark.stop()
  }
}

object Table6Memory {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table6")
    try {
      val profile = Benchmarks.santosLarge()
      val lake    = LakeGen.generate(profile.cfg)
      val models  = Experiments.trainModels(lake, profile)
      val emb     = Experiments.embedLake(lake, models.starmie)
      println(Tables.renderT6(lake.sizeBytes / 1e6, Experiments.memoryOverhead(lake, emb)))
    } finally spark.stop()
  }
}

object Table7MlDiscovery {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table7")
    try {
      val res = Tables.table7(spark, nTasks = 25, rows = 200,
        Contrastive.TrainConfig(maxSteps = 200, epochs = 40))
      println(Tables.renderT7(res))
      println()
      println(Tables.renderT11(res))
    } finally spark.stop()
  }
}

object Table8FullEfficiency {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table8")
    try {
      val res  = Experiments.effectiveness(Benchmarks.santosSmall, Some(spark))
      val embs = Tables.allEmbeddings(res.lake, res.models)
      println(Tables.renderT58(Tables.table58(res.lake, embs, res.profile.k)))
    } finally spark.stop()
  }
}

object Table10Clustering {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("table10")
    try {
      val profile = Benchmarks.clustering
      val lake    = LakeGen.generate(profile.cfg)
      val models  = Experiments.trainModels(lake, profile)
      val target  = math.max(lake.colContextualType.values.toSet.size,
                             lake.totalColumns / 5)
      val (rows, results) = Tables.table10(lake,
        Seq(models.starmie, models.sato, models.sherlock, models.singleCol), target)
      println(Tables.renderT10(rows))
      println(Tables.renderT9(lake, results("starmie")))
    } finally spark.stop()
  }
}

object Fig10Scalability {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.session("fig10")
    try {
      val profile = Benchmarks.santosLarge()
      val lake    = LakeGen.generate(profile.cfg)
      val models  = Experiments.trainModels(lake, profile)
      val emb     = Experiments.embedLake(lake, models.starmie)
      val sizes   = Seq(1000, 3000, lake.tables.size).distinct
      println(Tables.renderFig10(Experiments.scalability(lake, emb, 10, sizes, 10)))
    } finally spark.stop()
  }
}
