package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class FeaturizerSpec extends AnyFunSuite {

  private val feat = new Featurizer()

  private def col(vals: String*) = ColumnData("c", vals.toIndexedSeq)

  test("hashedTokens is unit norm for non-empty input") {
    val v = feat.hashedTokens(Seq("a", "b", "c"))
    assert(math.abs(Linalg.norm(v) - 1f) < 1e-4)
  }

  test("hashedTokens of empty input is zero") {
    assert(feat.hashedTokens(Seq.empty).forall(_ == 0f))
  }

  test("identical token multisets hash identically") {
    val a = feat.hashedTokens(Seq("x", "y", "x"))
    val b = feat.hashedTokens(Seq("y", "x", "x"))
    assert(a.toSeq == b.toSeq)
  }

  test("columns over the same pool are similar, different pools dissimilar") {
    val a = feat.columnFeatures(col("cityv1 north", "cityv2 south", "cityv3 east"))
    val b = feat.columnFeatures(col("cityv2 south", "cityv1 north", "cityv4 west"))
    val c = feat.columnFeatures(col("birdv1 north", "birdv2 south", "birdv9 east"))
    assert(Linalg.cosine(a, b) > Linalg.cosine(a, c))
    assert(Linalg.cosine(a, b) > 0.5f)
  }

  test("stats capture numeric fraction") {
    val sNum = feat.stats(col("1", "2", "3"))
    val sTxt = feat.stats(col("a", "b", "c"))
    assert(sNum(3) == 1.0f && sTxt(3) == 0.0f)
  }

  test("stats of an empty column are zero") {
    assert(feat.stats(col()).forall(_ == 0f))
  }

  test("columnFeatures has configured dimension and unit norm") {
    val v = feat.columnFeatures(col("a", "b"))
    assert(v.length == feat.cfg.colDim)
    assert(math.abs(Linalg.norm(v) - 1f) < 1e-4)
  }

  test("contextFeatures excludes the column itself") {
    val cf = IndexedSeq(
      feat.columnFeatures(col("a")),
      feat.columnFeatures(col("zzz", "qqq")))
    val ctx0 = feat.contextFeatures(cf, 0)
    // context of column 0 is the (normalized) features of column 1
    assert(Linalg.cosine(ctx0, cf(1)) > 0.999f)
  }

  test("contextFeatures of a single-column table is zero") {
    val cf = IndexedSeq(feat.columnFeatures(col("a")))
    assert(feat.contextFeatures(cf, 0).forall(_ == 0f))
  }

  test("tableInputs concatenates own and context halves") {
    val t  = TableData("t", IndexedSeq(col("a", "b"), col("x", "y")))
    val in = feat.tableInputs(t)
    assert(in.size == 2 && in.head.length == feat.cfg.contextDim)
    val own = feat.columnFeatures(t.columns(0))
    assert(in(0).take(feat.cfg.colDim).toSeq == own.toSeq)
  }

  /** 40 random tables of 1–7 columns with mixed text and numeric values. */
  private def randomTables: Seq[TableData] = {
    val rnd = new Random(5)
    (0 until 40).map { s =>
      TableData(s"t$s", IndexedSeq.tabulate(1 + rnd.nextInt(7))(i =>
        col(IndexedSeq.fill(1 + rnd.nextInt(5))(
          if (i % 3 == 2) rnd.nextInt(2000).toString
          else s"v${rnd.nextInt(30)} w${rnd.nextInt(9)}"): _*)))
    }
  }

  test("contextInputs of a column selection equals tableInputs of the view, float for float") {
    val rnd = new Random(6)
    randomTables.zipWithIndex.foreach { case (t, s) =>
      val own = t.columns.map(feat.columnFeatures)
      // the column-level operators' views, plus a selection in shuffled order
      val sel   = rnd.shuffle(t.columns.indices.toIndexedSeq).take(1 + rnd.nextInt(t.numCols))
      val views = Seq("drop_col", "drop_num_col", "drop_nan_col", "shuffle_col")
        .map(Augment.byName(_)(t, new Random(s))) :+
        Augment.View(t.copy(columns = sel.map(t.columns)), sel)
      views.foreach { v =>
        assert(feat.contextInputs(v.alignment.map(own)).map(_.toSeq) ==
          feat.tableInputs(v.table).map(_.toSeq))
      }
    }
  }

  test("viewInputs equals tableInputs of every operator's view, float for float") {
    randomTables.zipWithIndex.foreach { case (t, s) =>
      val own = t.columns.map(feat.columnFeatures)
      Augment.byName.foreach { case (name, op) =>
        val v = op(t, new Random(s))
        assert(feat.viewInputs(t, own, v).map(_.toSeq) == feat.tableInputs(v.table).map(_.toSeq),
          s"$name on ${t.id}")
      }
    }
  }

  test("same values in different table contexts give different inputs") {
    val shared = col("cityv1 north", "cityv2 south")
    val t1 = TableData("t1", IndexedSeq(shared, col("travelv1 old", "travelv2 new")))
    val t2 = TableData("t2", IndexedSeq(shared, col("birdv1 old", "birdv2 new")))
    val x1 = feat.tableInputs(t1)(0)
    val x2 = feat.tableInputs(t2)(0)
    // own halves identical, context halves different
    assert(x1.take(feat.cfg.colDim).toSeq == x2.take(feat.cfg.colDim).toSeq)
    assert(x1.drop(feat.cfg.colDim).toSeq != x2.drop(feat.cfg.colDim).toSeq)
  }

  test("tableTopic is shared by all columns of a table") {
    val t = TableData("t", IndexedSeq(col("a"), col("b")))
    val topic = feat.tableTopic(t)
    assert(topic.length == feat.cfg.hashDim)
    assert(math.abs(Linalg.norm(topic) - 1f) < 1e-4)
  }
}
