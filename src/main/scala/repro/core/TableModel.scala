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

/** A data-lake table: an id plus an ordered, non-empty list of columns. */
final case class TableData(id: String, columns: IndexedSeq[ColumnData]) {
  require(columns.nonEmpty, s"TableData: table '$id' has no columns")
  def numCols: Int = columns.size
  def numRows: Int = columns.map(_.values.size).max
}

object TableModel {

  /** Cell-level DataFrame view of a corpus: one row per (table, column, row)
    * cell, the input of the embedding-inference pipeline. A column without
    * values would leave no row, and `Encoder.inferDf` would then give its
    * index to the next column, so such a column is rejected.
    */
  def toCellDf(spark: SparkSession, tables: Seq[TableData]): DataFrame = {
    import spark.implicits._
    for (t <- tables; (c, ci) <- t.columns.zipWithIndex)
      require(c.values.nonEmpty, s"toCellDf: column $ci of table '${t.id}' has no values")
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
