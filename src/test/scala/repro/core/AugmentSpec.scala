package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class AugmentSpec extends AnyFunSuite {

  private def mkTable: TableData = TableData("t", IndexedSeq(
    ColumnData("state",   IndexedSeq("new york", "california", "florida", "texas")),
    ColumnData("capital", IndexedSeq("albany", "sacramento", "tallahassee", "austin")),
    ColumnData("since",   IndexedSeq("1797", "1854", "1824", "1845")),
    ColumnData("blankish", IndexedSeq("", "nan", "x", "")),
  ))

  private def rnd = new Random(12)

  /** A table of 1–8 columns with distinct names (so equal columns are the
    * same column) and 0–5 values each, plus the seed the operator draws from.
    */
  private val tableGen: Gen[(TableData, Long)] = for {
    nCols <- Gen.choose(1, 8)
    seed  <- Gen.choose(0L, Long.MaxValue)
  } yield {
    val r = new Random(seed)
    val cols = IndexedSeq.tabulate(nCols)(i =>
      ColumnData(s"c$i", IndexedSeq.fill(r.nextInt(6))(r.nextInt(20).toString)))
    (TableData(s"t$seed", cols), seed)
  }

  /** The operators whose views are column selections. */
  private val selections = Set("drop_col", "drop_num_col", "drop_nan_col", "shuffle_col")

  test("every operator preserves the alignment contract") {
    val prop = Prop.forAll(tableGen) { case (t, seed) =>
      Augment.byName.forall { case (name, op) =>
        val v       = op(t, new Random(seed))
        val aligned = v.alignment.map(t.columns)
        v.alignment.size == v.table.numCols &&
          v.alignment.distinct.size == v.alignment.size &&
          v.alignment.forall(i => i >= 0 && i < t.numCols) &&
          (if (selections(name)) v.table.columns == aligned
           else v.table.columns.map(_.name) == aligned.map(_.name))
      }
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop).passed)
  }

  test("drop_cell keeps column count and row count") {
    val v = Augment.dropCell(mkTable, rnd)
    assert(v.table.numCols == 4 && v.table.numRows == 4)
  }

  test("drop_cell blanks exactly one cell per column") {
    val v = Augment.dropCell(mkTable, rnd)
    val c0 = v.table.columns(2) // "since" column has no empty original cells
    assert(c0.values.count(_ == "") == 1)
  }

  test("drop_col drops at least one and keeps at least one column") {
    (0 until 20).foreach { s =>
      val v = Augment.dropCol(mkTable, new Random(s))
      assert(v.table.numCols >= 1 && v.table.numCols < 4)
    }
  }

  test("drop_col alignment points at the surviving originals") {
    val v = Augment.dropCol(mkTable, rnd)
    v.table.columns.zip(v.alignment).foreach { case (c, origIdx) =>
      assert(mkTable.columns(origIdx).values == c.values)
    }
  }

  test("drop_col on a single-column table is identity") {
    val t = TableData("one", IndexedSeq(ColumnData("a", IndexedSeq("x"))))
    val v = Augment.dropCol(t, rnd)
    assert(v.table == t && v.alignment == IndexedSeq(0))
  }

  test("drop_num_col only drops numeric columns") {
    (0 until 20).foreach { s =>
      val v = Augment.dropNumCol(mkTable, new Random(s))
      // "since" (index 2) is the only numeric column
      val keptNames = v.table.columns.map(_.name)
      assert(keptNames.contains("state") && keptNames.contains("capital"))
    }
  }

  test("drop_nan_col removes the mostly-blank column") {
    val v = Augment.dropNanCol(mkTable, rnd)
    assert(!v.table.columns.exists(_.name == "blankish"))
    assert(v.table.numCols == 3)
  }

  test("shuffle_col permutes columns with a consistent alignment") {
    val v = Augment.shuffleCol(mkTable, rnd)
    assert(v.table.numCols == 4)
    v.table.columns.zip(v.alignment).foreach { case (c, origIdx) =>
      assert(mkTable.columns(origIdx) == c)
    }
  }

  test("registry holds drop_cell and the four column-level operators") {
    assert(Augment.byName.keySet == Set("drop_cell") ++ selections)
  }
}
