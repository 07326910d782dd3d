package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** A column encoder M maps every column of a table to an L2-normalized
  * embedding; cosine (= dot on normalized vectors) is the column
  * unionability score F of §2.1.
  */
trait ColumnEncoder extends Serializable {
  def name: String
  def dim: Int
  /** Embeddings for every column of `t`, in column order, L2-normalized. */
  def encodeTable(t: TableData): IndexedSeq[Array[Float]]
}

/** Starmie's contextualized multi-column encoder (§3.3): input is
  * [own features ; sibling-context features], projected by the
  * contrastively-trained W and normalized.
  */
final class StarmieEncoder(feat: Featurizer, w: Array[Array[Float]])
    extends ColumnEncoder {
  require(w.nonEmpty && w(0).length == feat.cfg.contextDim,
    s"W must be d×${feat.cfg.contextDim}")
  val name = "starmie"
  val dim: Int = w.length
  def encodeTable(t: TableData): IndexedSeq[Array[Float]] =
    feat.tableInputs(t).map(x => Linalg.normalize(Linalg.matVec(w, x)))
}

/** Starmie without table context (§3.2 / the SingleCol baseline of §5.1.4). */
final class SingleColEncoder(feat: Featurizer, w: Array[Array[Float]])
    extends ColumnEncoder {
  require(w.nonEmpty && w(0).length == feat.cfg.colDim,
    s"W must be d×${feat.cfg.colDim}")
  val name = "singlecol"
  val dim: Int = w.length
  def encodeTable(t: TableData): IndexedSeq[Array[Float]] =
    t.columns.map(c => Linalg.normalize(Linalg.matVec(w, feat.columnFeatures(c))))
}

object Encoder {

  /** Spark inference pipeline (the offline "model inference" stage of
    * Figure 2): cell-level corpus DataFrame → one row per column with its
    * embedding. The encoder (with its trained weights) is shipped to the
    * executors via the closure; tables are reassembled per group so the
    * multi-column encoder sees full table context.
    */
  def inferDf(spark: SparkSession, cellDf: DataFrame, enc: ColumnEncoder): DataFrame = {
    val grouped = cellDf
      .groupBy(col("table_id"))
      .agg(collect_list(struct(col("col_idx"), col("col_name"),
                               col("row_idx"), col("value"))).as("cells"))
    val outSchema = StructType(Seq(
      StructField("table_id", StringType, nullable = false),
      StructField("col_idx", IntegerType, nullable = false),
      StructField("embedding", ArrayType(FloatType, containsNull = false), nullable = false),
    ))
    val outEncoder = org.apache.spark.sql.catalyst.encoders.RowEncoder.encoderFor(outSchema)
    grouped.flatMap { row =>
      val tid   = row.getString(0)
      val cells = row.getSeq[Row](1)
      val cols = cells
        .groupBy(_.getInt(0))
        .toSeq
        .sortBy(_._1)
        .map { case (_, cs) =>
          val name   = cs.head.getString(1)
          val values = cs.sortBy(_.getInt(2)).map(_.getString(3)).toIndexedSeq
          ColumnData(name, values)
        }
      val t    = TableData(tid, cols.toIndexedSeq)
      val embs = enc.encodeTable(t)
      embs.zipWithIndex.map { case (e, i) => Row(tid, i, e.toSeq) }
    }(outEncoder).toDF("table_id", "col_idx", "embedding")
  }

  /** Collect an embeddings DataFrame back into the driver-side map shape. */
  def collectEmbeddings(df: DataFrame): Map[String, IndexedSeq[Array[Float]]] =
    df.collect()
      .groupBy(_.getString(0))
      .map { case (tid, rows) =>
        tid -> rows.sortBy(_.getInt(1)).map(_.getSeq[Float](2).toArray).toIndexedSeq
      }
}
