package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ContrastiveSpec extends AnyFunSuite {

  private val feat = new Featurizer(FeatConfig(hashDim = 64))

  private def unitVecs(n: Int, d: Int, seed: Int): IndexedSeq[Array[Float]] = {
    val rnd = new Random(seed)
    IndexedSeq.fill(n)(Linalg.normalize(Array.fill(d)(rnd.nextGaussian().toFloat)))
  }

  test("loss is lower when positive pairs are aligned") {
    val d = 8
    val a = Linalg.normalize(Array.fill(d)(1f))
    val aCopy = a.clone()
    val far = Linalg.normalize(Array.tabulate(d)(i => if (i == 0) 1f else -1f))
    val alignedLoss  = Contrastive.loss(IndexedSeq(a, aCopy, far, far.map(-_)), Seq((0, 1)), 0.07)
    val misalignLoss = Contrastive.loss(IndexedSeq(a, far, aCopy, far.map(-_)), Seq((0, 1)), 0.07)
    assert(alignedLoss < misalignLoss)
  }

  test("loss with no positives is zero") {
    assert(Contrastive.loss(unitVecs(4, 8, 1), Seq.empty, 0.07) == 0.0)
  }

  test("analytic gradient matches numeric gradient") {
    val rnd = new Random(5)
    val inDim = 6; val outDim = 4
    val xs = IndexedSeq.fill(6)(Array.fill(inDim)(rnd.nextGaussian().toFloat))
    val positives = Seq((0, 3), (1, 4), (2, 5))
    val tau = 0.2

    def lossAt(w: Array[Array[Float]]): Double = {
      val zs = xs.map(x => Linalg.normalized(Linalg.matVec(w, x)))
      Contrastive.loss(zs, positives, tau)
    }

    val w0 = Linalg.randomMatrix(outDim, inDim, 7)
    // analytic: one step with lr recovers gradient via the W update
    val wStep = w0.map(_.clone())
    val lr = 1.0
    Contrastive.step(wStep, xs, positives, tau, lr)
    // check a few coordinates against central finite differences
    val eps = 1e-3f
    for (r <- 0 until outDim; c <- 0 until inDim if (r * inDim + c) % 5 == 0) {
      val wPlus = w0.map(_.clone());  wPlus(r)(c) += eps
      val wMinus = w0.map(_.clone()); wMinus(r)(c) -= eps
      val numeric  = (lossAt(wPlus) - lossAt(wMinus)) / (2 * eps)
      val analytic = (w0(r)(c) - wStep(r)(c)) / lr // W -= lr*grad
      assert(math.abs(numeric - analytic) < 5e-2,
        s"grad mismatch at ($r,$c): numeric=$numeric analytic=$analytic")
    }
  }

  test("step reduces the loss on a fixed batch") {
    val rnd = new Random(11)
    val inDim = 10
    val xs = IndexedSeq.fill(8)(Array.fill(inDim)(rnd.nextGaussian().toFloat))
    val positives = Seq((0, 4), (1, 5), (2, 6), (3, 7))
    val w = Linalg.randomMatrix(6, inDim, 3)
    def curLoss = {
      val zs = xs.map(x => Linalg.normalized(Linalg.matVec(w, x)))
      Contrastive.loss(zs, positives, 0.07)
    }
    val before = curLoss
    (0 until 30).foreach(_ => Contrastive.step(w, xs, positives, 0.07, 0.2))
    assert(curLoss < before)
  }

  /** tiny two-template corpus with a shared (homograph) column pool */
  private def homographCorpus(seed: Int): Seq[TableData] = {
    val rnd = new Random(seed)
    def city(i: Int)   = s"cityv$i north"
    def travel(i: Int) = s"travelv$i old"
    def bird(i: Int)   = s"birdv$i new"
    def year(i: Int)   = (1900 + i % 60).toString
    (0 until 20).map { k =>
      if (k % 2 == 0)
        TableData(s"travel$k", IndexedSeq(
          ColumnData("dest", IndexedSeq.fill(12)(city(rnd.nextInt(30)))),
          ColumnData("purpose", IndexedSeq.fill(12)(travel(rnd.nextInt(30)))),
          ColumnData("year", IndexedSeq.fill(12)(year(rnd.nextInt(60))))))
      else
        TableData(s"bird$k", IndexedSeq(
          ColumnData("loc", IndexedSeq.fill(12)(city(rnd.nextInt(30)))),
          ColumnData("species", IndexedSeq.fill(12)(bird(rnd.nextInt(30)))),
          ColumnData("year", IndexedSeq.fill(12)(year(rnd.nextInt(60))))))
    }
  }

  test("multi-column training separates homograph columns by context") {
    val corpus = homographCorpus(17)
    val w = Contrastive.trainMultiColumn(corpus, feat,
      Contrastive.TrainConfig(embedDim = 32, batchTables = 6, epochs = 30, maxSteps = 120, seed = 9))
    val enc = new StarmieEncoder(feat, w)
    val travelA = enc.encodeTable(corpus(0))(0)  // city col in travel context
    val travelB = enc.encodeTable(corpus(2))(0)
    val birdA   = enc.encodeTable(corpus(1))(0)  // city col in bird context
    val sameCtx  = Linalg.dot(travelA, travelB)
    val crossCtx = Linalg.dot(travelA, birdA)
    assert(sameCtx > crossCtx,
      s"contextualized embeddings should separate homographs: same=$sameCtx cross=$crossCtx")
  }

  test("single-column training keeps same-pool columns together") {
    val corpus = homographCorpus(23)
    val w = Contrastive.trainSingleColumn(corpus, feat,
      Contrastive.TrainConfig(embedDim = 32, epochs = 20, maxSteps = 80, seed = 4))
    val enc = new SingleColEncoder(feat, w)
    val purposeA = enc.encodeTable(corpus(0))(1) // travel pool
    val purposeB = enc.encodeTable(corpus(2))(1) // travel pool
    val species  = enc.encodeTable(corpus(1))(1) // bird pool
    assert(Linalg.dot(purposeA, purposeB) > Linalg.dot(purposeA, species))
  }

  test("multi-column training names an unknown augmentation operator") {
    val cfg = Contrastive.TrainConfig(embedDim = 8, maxSteps = 1, op = "sample_row")
    val e = intercept[IllegalArgumentException](
      Contrastive.trainMultiColumn(homographCorpus(3), feat, cfg))
    assert(e.getMessage.contains("unknown augmentation operator 'sample_row'; known: " +
      "drop_cell, drop_col, drop_nan_col, drop_num_col, shuffle_col"),
      e.getMessage)
  }

  test("training is deterministic in the seed") {
    val corpus = homographCorpus(3)
    val cfg = Contrastive.TrainConfig(embedDim = 8, epochs = 2, maxSteps = 10)
    val w1 = Contrastive.trainMultiColumn(corpus, feat, cfg)
    val w2 = Contrastive.trainMultiColumn(corpus, feat, cfg)
    assert(w1.flatten.toSeq == w2.flatten.toSeq)
  }

  test("trained weights are pinned bit for bit for a fixed seed") {
    // Literals captured by running these two trainings at commit 53129aa,
    // before the NT-Xent similarity matrix moved to Matching.simMatrix.
    // `hash` is java.util.Arrays.hashCode over all entries' float bits, so it
    // pins every weight; the picked entries and the sum say where a change
    // lands.
    val corpus = homographCorpus(3)
    val cfg = Contrastive.TrainConfig(embedDim = 8, epochs = 2, maxSteps = 10)
    def pinned(w: Array[Array[Float]], picks: Seq[((Int, Int), Float)], sum: Double,
               hash: Int): Unit = {
      picks.foreach { case ((r, c), v) => assert(w(r)(c) == v, s"w($r)($c)") }
      assert(w.flatten.map(_.toDouble).sum == sum)
      assert(java.util.Arrays.hashCode(w.flatten) == hash)
    }
    val multi = Contrastive.trainMultiColumn(corpus, feat, cfg)
    assert(multi.length == 8 && multi(0).length == 152)
    pinned(multi, Seq((0, 0) -> 0.115644015f, (1, 7) -> -0.093571894f,
      (3, 40) -> -0.19462283f, (5, 76) -> 0.19471017f, (7, 151) -> 0.04261395f),
      sum = -3.230444838554831, hash = 1778743052)
    val single = Contrastive.trainSingleColumn(corpus, feat, cfg)
    assert(single.length == 8 && single(0).length == 76)
    pinned(single, Seq((0, 0) -> 0.30460823f, (1, 7) -> 0.113893464f,
      (3, 40) -> -0.099623024f, (5, 38) -> 0.1971232f, (7, 75) -> -0.041542f),
      sum = 1.8074211701750755, hash = 1766818065)
  }
}
