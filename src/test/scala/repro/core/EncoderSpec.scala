package repro.core

import org.apache.spark.sql.functions.rand
import repro.SparkSpec

/** Test encoder whose vector for a column depends on the column's name and on
  * its values in row order, so a renamed, reordered or regrouped column shows.
  * Top level, so that Spark can serialize it without the spec.
  */
private final class RowOrderEncoder extends ColumnEncoder {
  val name = "row-order"
  val dim  = 2
  def encodeTable(t: TableData): IndexedSeq[Array[Float]] =
    t.columns.map { c =>
      val h = (c.name +: c.values).hashCode
      Array((h >>> 16).toFloat, (h & 0xffff).toFloat)
    }
}

class EncoderSpec extends SparkSpec {

  private val feat = new Featurizer(FeatConfig(hashDim = 64))

  private val tables = Seq(
    TableData("t1", IndexedSeq(
      ColumnData("a", IndexedSeq("cityv1 north", "cityv2 south")),
      ColumnData("b", IndexedSeq("1997", "1998")))),
    TableData("t2", IndexedSeq(
      ColumnData("c", IndexedSeq("birdv1 old", "birdv2 new")))),
  )

  private def mkStarmie: StarmieEncoder =
    new StarmieEncoder(feat, Linalg.randomMatrix(16, feat.cfg.contextDim, 1))

  test("StarmieEncoder emits one unit vector per column") {
    val enc = mkStarmie
    val em = enc.encodeTable(tables.head)
    assert(em.size == 2)
    em.foreach(v => assert(math.abs(Linalg.norm(v) - 1f) < 1e-4))
    assert(em.head.length == 16)
  }

  test("SingleColEncoder ignores table context") {
    val enc = new SingleColEncoder(feat, Linalg.randomMatrix(16, feat.cfg.colDim, 2))
    val shared = ColumnData("x", IndexedSeq("cityv1 north"))
    val e1 = enc.encodeTable(TableData("a", IndexedSeq(shared, ColumnData("y", IndexedSeq("foo")))))(0)
    val e2 = enc.encodeTable(TableData("b", IndexedSeq(shared, ColumnData("z", IndexedSeq("bar")))))(0)
    assert(e1.toSeq == e2.toSeq)
  }

  test("StarmieEncoder is context-sensitive") {
    val enc = mkStarmie
    val shared = ColumnData("x", IndexedSeq("cityv1 north"))
    val e1 = enc.encodeTable(TableData("a", IndexedSeq(shared, ColumnData("y", IndexedSeq("foo")))))(0)
    val e2 = enc.encodeTable(TableData("b", IndexedSeq(shared, ColumnData("z", IndexedSeq("bar")))))(0)
    assert(e1.toSeq != e2.toSeq)
  }

  test("encoder dimension mismatch is rejected") {
    intercept[IllegalArgumentException] {
      new StarmieEncoder(feat, Linalg.randomMatrix(16, 3, 1))
    }
  }

  test("Spark inference pipeline equals driver-side inference") {
    val enc = mkStarmie
    val cellDf = TableModel.toCellDf(spark, tables)
    val viaSpark = Encoder.collectEmbeddings(Encoder.inferDf(spark, cellDf, enc))
    val viaDriver = tables.map(t => t.id -> enc.encodeTable(t)).toMap
    assert(viaSpark.keySet == viaDriver.keySet)
    viaSpark.foreach { case (tid, embs) =>
      embs.zip(viaDriver(tid)).foreach { case (a, b) =>
        a.zip(b).foreach { case (x, y) => assert(math.abs(x - y) < 1e-5) }
      }
    }
  }

  test("toCellDf + inferDf keep column names and row order (row-order encoder)") {
    val rnd = new scala.util.Random(4)
    val corpus = (0 until 6).map { t =>
      TableData(s"t$t", IndexedSeq.tabulate(1 + t % 3) { c =>
        ColumnData(s"c$t$c", IndexedSeq.fill(40)(s"v${rnd.nextInt(1000)}"))
      })
    }
    val enc = new RowOrderEncoder
    // inferDf may receive cells in any order; shuffle them to make sure
    val cells = TableModel.toCellDf(spark, corpus).orderBy(rand(7))
    val viaSpark = Encoder.collectEmbeddings(Encoder.inferDf(spark, cells, enc))
    assert(viaSpark.keySet == corpus.map(_.id).toSet)
    corpus.foreach { t =>
      val expected = enc.encodeTable(t)
      assert(viaSpark(t.id).size == expected.size, t.id)
      viaSpark(t.id).zip(expected).foreach { case (a, b) => assert(a.sameElements(b), t.id) }
    }
  }

  test("inferDf emits one row per column") {
    val enc = mkStarmie
    val cellDf = TableModel.toCellDf(spark, tables)
    val df = Encoder.inferDf(spark, cellDf, enc)
    assert(df.count() == 3)
    assert(df.columns.toSeq == Seq("table_id", "col_idx", "embedding"))
  }
}
