package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A single data-lake column: a name (unused by encoders, as in the paper's
  * fair comparison where column-name features are omitted) and its cell values.
  */
final case class ColumnData(name: String, values: IndexedSeq[String]) {
  lazy val tokens: IndexedSeq[String] = values.flatMap(Tokenizer.tokenize)
  lazy val tokenSet: Set[String]      = tokens.toSet
  lazy val numericFraction: Double =
    if (values.isEmpty) 0.0
    else values.count(Tokenizer.isNumeric).toDouble / values.size
  def isNumeric: Boolean = numericFraction >= 0.5
}

/** A data-lake table: an id plus an ordered list of columns. */
final case class TableData(id: String, columns: IndexedSeq[ColumnData]) {
  def numCols: Int = columns.size
  def numRows: Int = if (columns.isEmpty) 0 else columns.map(_.values.size).max
}

object TableModel {

  /** Cell-level DataFrame view of a corpus: one row per (table, column, row)
    * cell. This is the relational backbone used by the Spark TF-IDF job
    * (Algorithm 2) and the embedding-inference pipeline.
    */
  def toCellDf(spark: SparkSession, tables: Seq[TableData]): DataFrame = {
    import spark.implicits._
    val rows = tables.iterator.flatMap { t =>
      t.columns.iterator.zipWithIndex.flatMap { case (c, ci) =>
        c.values.iterator.zipWithIndex.map { case (v, ri) =>
          (t.id, ci, c.name, ri, v)
        }
      }
    }.toSeq
    rows.toDF("table_id", "col_idx", "col_name", "row_idx", "value")
  }
}
