package repro.core

import repro.{Oracle, SparkSpec}

class TableModelSpec extends SparkSpec {

  private val tables = Seq(
    TableData("t1", IndexedSeq(
      ColumnData("a", IndexedSeq("x", "y")),
      ColumnData("b", IndexedSeq("1", "2")))),
    TableData("t2", IndexedSeq(
      ColumnData("c", IndexedSeq("z")))),
  )

  test("toCellDf emits one row per cell") {
    val df = TableModel.toCellDf(spark, tables)
    assert(df.count() == 5)
    assert(df.columns.toSeq == Seq("table_id", "col_idx", "col_name", "row_idx", "value"))
  }

  test("toCellDf cell counts per table match DuckDB aggregation (oracle)") {
    import org.apache.spark.sql.functions._
    val cellDf = TableModel.toCellDf(spark, tables)
    val agg = cellDf.groupBy("table_id").agg(count(lit(1)).as("n_cells"))
    Oracle.assertEquivalent(agg,
      "SELECT table_id, COUNT(*) AS n_cells FROM cells GROUP BY table_id",
      "cells" -> cellDf)
  }

  test("toCellDf rejects a column with no values, naming the table and column") {
    val t = TableData("gap", IndexedSeq(
      ColumnData("a", IndexedSeq("x")), ColumnData("b", IndexedSeq()), ColumnData("c", IndexedSeq("y"))))
    val e = intercept[IllegalArgumentException](TableModel.toCellDf(spark, tables :+ t))
    assert(e.getMessage.contains("column 1 of table 'gap' has no values"), e.getMessage)
  }

  test("TableData rejects a table with no columns, naming its id") {
    val e = intercept[IllegalArgumentException](TableData("bare", IndexedSeq()))
    assert(e.getMessage.contains("table 'bare' has no columns"), e.getMessage)
  }

  test("ColumnData tokens concatenate cell tokens in row order") {
    assert(ColumnData("c", IndexedSeq("a b", "c")).tokens == Seq("a", "b", "c"))
  }

  test("ColumnData numeric detection") {
    assert(ColumnData("n", IndexedSeq("1", "2", "x")).isNumeric)
    assert(!ColumnData("n", IndexedSeq("a", "b", "3")).isNumeric)
  }

  test("TableData numRows is the max column length") {
    val t = TableData("t", IndexedSeq(
      ColumnData("a", IndexedSeq("1")),
      ColumnData("b", IndexedSeq("1", "2"))))
    assert(t.numRows == 2 && t.numCols == 2)
  }
}
