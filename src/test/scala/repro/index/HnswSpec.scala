package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Linalg
import scala.util.Random

class HnswSpec extends AnyFunSuite {

  private def randomUnit(d: Int, rnd: Random): Array[Float] =
    Linalg.normalize(Array.fill(d)(rnd.nextGaussian().toFloat))

  test("empty index returns nothing") {
    val h = new Hnsw(4)
    assert(h.search(Array(1f, 0f, 0f, 0f), 5).isEmpty)
  }

  test("single element is found") {
    val h = new Hnsw(2)
    h.add(7, Array(1f, 0f))
    val res = h.search(Array(1f, 0f), 1)
    assert(res.size == 1 && res.head._1 == 7)
    assert(math.abs(res.head._2 - 1f) < 1e-6)
  }

  test("exact nearest neighbour on a tiny set") {
    val h = new Hnsw(2)
    h.add(0, Array(1f, 0f))
    h.add(1, Array(0f, 1f))
    h.add(2, Linalg.normalized(Array(1f, 0.1f)))
    val res = h.search(Array(1f, 0f), 2).map(_._1)
    assert(res.head == 0 && res(1) == 2)
  }

  test("results are sorted by similarity descending") {
    val rnd = new Random(1)
    val h = new Hnsw(8)
    (0 until 200).foreach(i => h.add(i, randomUnit(8, rnd)))
    val res = h.search(randomUnit(8, rnd), 10)
    assert(res.map(_._2).toSeq == res.map(_._2).sortBy(-_).toSeq)
  }

  test("recall@10 ≥ 0.9 vs linear scan on 2000 random vectors") {
    val rnd = new Random(2)
    val d = 16
    val vecs = IndexedSeq.fill(2000)(randomUnit(d, rnd))
    val hnsw = new Hnsw(d, m = 16, efConstruction = 100, efSearch = 80)
    val lin  = new LinearIndex(d)
    vecs.zipWithIndex.foreach { case (v, i) => hnsw.add(i, v); lin.add(i, v) }
    val recalls = (0 until 30).map { _ =>
      val q = randomUnit(d, rnd)
      val exact  = lin.search(q, 10).map(_._1).toSet
      val approx = hnsw.search(q, 10).map(_._1).toSet
      exact.intersect(approx).size.toDouble / exact.size
    }
    val avg = recalls.sum / recalls.size
    assert(avg >= 0.9, s"HNSW recall too low: $avg")
  }

  test("recall on clustered data (the lake regime) is near-perfect") {
    val rnd = new Random(4)
    val d = 16
    // 20 clusters of 50 vectors each
    val centers = IndexedSeq.fill(20)(randomUnit(d, rnd))
    val vecs = (0 until 1000).map { i =>
      val c = centers(i % 20)
      Linalg.normalized(c.zip(randomUnit(d, rnd)).map { case (a, b) => a + 0.15f * b })
    }
    val hnsw = new Hnsw(d)
    val lin  = new LinearIndex(d)
    vecs.zipWithIndex.foreach { case (v, i) => hnsw.add(i, v); lin.add(i, v) }
    val recalls = centers.map { q =>
      val exact  = lin.search(q, 20).map(_._1).toSet
      val approx = hnsw.search(q, 20).map(_._1).toSet
      exact.intersect(approx).size.toDouble / exact.size
    }
    assert(recalls.sum / recalls.size >= 0.95)
  }

  test("search is deterministic for a fixed build seed") {
    val rnd = new Random(5)
    def build(): Hnsw = {
      val h = new Hnsw(8, seed = 99)
      val r = new Random(3)
      (0 until 300).foreach(i => h.add(i, randomUnit(8, r)))
      h
    }
    val q = randomUnit(8, rnd)
    assert(build().search(q, 5) == build().search(q, 5))
  }

  test("memoryBytes grows with inserts") {
    val h = new Hnsw(8)
    val rnd = new Random(6)
    h.add(0, randomUnit(8, rnd))
    val m1 = h.memoryBytes
    (1 until 100).foreach(i => h.add(i, randomUnit(8, rnd)))
    assert(h.memoryBytes > m1)
    assert(h.size == 100)
  }

  test("memoryBytes covers the stored vectors and every link in use") {
    val rnd = new Random(10)
    Seq(1, 17, 500).foreach { n =>
      val h = new Hnsw(12, m = 6)
      (0 until n).foreach(i => h.add(i, randomUnit(12, rnd)))
      val floor = n.toLong * 12 * 4 + 4L * h.linksInUse
      assert(h.memoryBytes >= floor, s"n=$n: ${h.memoryBytes} < $floor")
    }
  }

  test("add rejects a vector of the wrong length, naming both lengths") {
    val h = new Hnsw(4)
    val e = intercept[IllegalArgumentException](h.add(3, Array(1f, 0f, 0f)))
    assert(e.getMessage.contains("3 components") && e.getMessage.contains("dim 4"), e.getMessage)
    assert(h.size == 0)
  }

  test("add rejects NaN and infinite components") {
    val h = new Hnsw(3)
    Seq(Float.NaN, Float.PositiveInfinity, Float.NegativeInfinity).foreach { bad =>
      val e = intercept[IllegalArgumentException](h.add(1, Array(0.5f, bad, 0.5f)))
      assert(e.getMessage.contains("non-finite") && e.getMessage.contains("position 1"),
        e.getMessage)
    }
    assert(h.size == 0)
    h.add(1, Array(1f, 0f, 0f))
    assert(h.search(Array(1f, 0f, 0f), 1).map(_._1) == Seq(1))
  }

  // Answers of the boxed implementation this class replaced (PriorityQueue
  // heaps, ArrayBuffer link lists, one Array[Float] per node), captured from
  // it once on these builds. The flat layout must reproduce them bit for bit:
  // same graph, same float sums.
  test("pinned answers on the clustered 1,000-vector build") {
    val rnd = new Random(4)
    val d = 16
    val centers = IndexedSeq.fill(20)(randomUnit(d, rnd))
    val vecs = (0 until 1000).map { i =>
      val c = centers(i % 20)
      Linalg.normalized(c.zip(randomUnit(d, rnd)).map { case (a, b) => a + 0.15f * b })
    }
    val h = new Hnsw(d)
    vecs.zipWithIndex.foreach { case (v, i) => h.add(i, v) }
    val expected = Seq(
      0 -> (Seq(460, 560, 160, 300, 200, 540, 660, 340, 80, 920),
            Seq(0.9953685f, 0.99507266f, 0.99360794f, 0.9915095f, 0.99139655f,
                0.9903064f, 0.9901855f, 0.9901705f, 0.9901484f, 0.9901356f)),
      7 -> (Seq(707, 727, 147, 527, 967, 367, 767, 247, 507, 447),
            Seq(0.9931319f, 0.992392f, 0.9919454f, 0.990943f, 0.99093246f,
                0.99093163f, 0.99090815f, 0.9908194f, 0.9905678f, 0.9905008f)))
    expected.foreach { case (c, (ids, sims)) =>
      val res = h.search(centers(c), 10)
      assert(res.map(_._1) == ids, s"center $c")
      assert(res.map(_._2) == sims, s"center $c")
    }
    val q = randomUnit(d, new Random(77))
    val res = h.search(q, 10)
    assert(res.map(_._1) == Seq(992, 692, 112, 592, 832, 72, 932, 712, 732, 352))
    assert(res.map(_._2) == Seq(0.47490102f, 0.4658481f, 0.4539676f, 0.44821766f,
      0.44560105f, 0.43956125f, 0.43217403f, 0.42957532f, 0.4275842f, 0.41813928f))
  }

  test("pinned answers on a sparse graph, where they depend on every link") {
    // M=4 and a beam of 8 on uniform data: the answers miss some of the
    // exact top-10, so they follow the links the build chose.
    val rnd = new Random(8)
    val d = 16
    val h = new Hnsw(d, m = 4, efConstruction = 8, efSearch = 4, seed = 5)
    (0 until 2000).foreach(i => h.add(i, randomUnit(d, rnd)))
    val expected = Seq(
      (Seq(839, 216, 1085, 213, 373, 967, 786, 42, 327, 690),
       Seq(0.7308318f, 0.728973f, 0.7287291f, 0.66063344f, 0.6591228f,
           0.6514188f, 0.6371131f, 0.6319951f, 0.59828174f, 0.5785581f)),
      (Seq(423, 350, 1789, 1691, 1941, 749, 956, 1001, 87, 772),
       Seq(0.7688624f, 0.7176446f, 0.70068663f, 0.60636896f, 0.6015813f,
           0.5896657f, 0.5876602f, 0.5574632f, 0.55619025f, 0.53460056f)),
      (Seq(493, 948, 1864, 1905, 1935, 1564, 8, 656, 1226, 564),
       Seq(0.8142548f, 0.6157048f, 0.6136141f, 0.6021815f, 0.59989285f,
           0.59567726f, 0.5603016f, 0.55258137f, 0.54253227f, 0.53635293f)))
    expected.zipWithIndex.foreach { case ((ids, sims), j) =>
      val res = h.search(randomUnit(d, rnd), 10)
      assert(res.map(_._1) == ids, s"query $j")
      assert(res.map(_._2) == sims, s"query $j")
    }
  }

  test("pinned answers among duplicate vectors, where the order of equal sims counts") {
    // 40 distinct vectors, each added 10 times: the order of equal sims in
    // the answers (and the links chosen among equals) comes from the heaps'
    // tie-breaking and the stable back-list sort.
    val rnd = new Random(12)
    val d = 8
    val base = IndexedSeq.fill(40)(randomUnit(d, rnd))
    val h = new Hnsw(d, m = 4, efConstruction = 10, efSearch = 10, seed = 6)
    (0 until 400).foreach(i => h.add(i, base((i * 7) % 40)))
    val r0 = h.search(base(3), 12)
    assert(r0.map(_._1) == Seq(390, 110, 150, 70, 230, 270, 310, 350, 190, 30, 71, 31))
    assert(r0.map(_._2) == Seq.fill(10)(0.6439885f) ++ Seq.fill(2)(0.50933117f))
    val r1 = h.search(base(17), 12)
    assert(r1.map(_._1) == Seq(111, 31, 71, 151, 351, 391, 191, 271, 311, 231))
    assert(r1.map(_._2) == Seq.fill(10)(1.0f))
    val r2 = h.search(randomUnit(d, rnd), 12)
    assert(r2.map(_._1) == Seq(365, 85, 45, 125, 205, 245, 285, 325, 165, 5, 398, 367))
    assert(r2.map(_._2) == Seq.fill(10)(0.6606022f) ++ Seq(0.1432172f, -0.057802938f))
  }

  test("search leaks no state: interleaved answers equal a fresh build's, exact and ranked") {
    val d = 12
    (1 to 4).foreach { seed =>
      val rnd = new Random(seed)
      // half the vectors repeat an earlier one, so equal sims are common
      val base = IndexedSeq.fill(150)(randomUnit(d, rnd))
      val vecs = IndexedSeq.tabulate(300)(i => if (i % 2 == 0) base(i / 2) else base(rnd.nextInt(150)))
      val queries = IndexedSeq.fill(20)(randomUnit(d, rnd)) ++ base.take(5)
      val interleaved = new Hnsw(d, m = 5, efConstruction = 20, efSearch = 10, seed = seed)
      val fresh = new Hnsw(d, m = 5, efConstruction = 20, efSearch = 10, seed = seed)
      vecs.indices.foreach { i =>
        interleaved.add(i, vecs(i))
        fresh.add(i, vecs(i))
        // searches between adds, with changing queries and k
        if (i % 7 == 0) interleaved.search(queries(i % queries.size), 1 + i % 30)
      }
      queries.zipWithIndex.foreach { case (q, j) =>
        val k = 1 + (j * 7) % 40
        val res = interleaved.search(q, k)
        assert(res == fresh.search(q, k), s"seed $seed query $j")
        assert(res.size == k)
        assert(res.map(_._1).distinct.size == res.size, s"duplicate ids for query $j")
        assert(res.map(_._2) == res.map(_._2).sortBy(-_), s"sims not descending for query $j")
        res.foreach { case (id, s) => assert(s == Linalg.dot(q, vecs(id)), s"sim of $id") }
      }
    }
  }
}
