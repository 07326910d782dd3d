package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.index.{Hnsw, SimHashLsh, VectorIndex}
import scala.util.Random

class SearchSpec extends AnyFunSuite {

  /** A synthetic embedded lake: `nGroups` groups of `perGroup` tables; tables
    * of the same group have near-identical column embeddings.
    */
  private def mkLake(nGroups: Int, perGroup: Int, cols: Int, d: Int,
                     seed: Int): IndexedSeq[(String, IndexedSeq[Array[Float]])] = {
    val rnd = new Random(seed)
    val centers = IndexedSeq.fill(nGroups, cols)(
      Linalg.normalize(Array.fill(d)(rnd.nextGaussian().toFloat)))
    for {
      g <- 0 until nGroups
      i <- 0 until perGroup
    } yield {
      val emb = (0 until cols).map { c =>
        val noise = Array.fill(d)((rnd.nextGaussian() * 0.05).toFloat)
        Linalg.normalized(centers(g)(c).zip(noise).map { case (a, b) => a + b })
      }
      (s"g${g}t$i", emb.toIndexedSeq)
    }
  }

  private val lake = mkLake(nGroups = 8, perGroup = 10, cols = 4, d = 16, seed = 1)
  private val searcher = new UnionSearcher(lake, tau = 0.5)
  private val byId = lake.toMap

  test("verify of a table against itself equals its column count") {
    val u = searcher.verify(byId("g0t0"), "g0t0")
    assert(math.abs(u - 4.0) < 1e-4)
  }

  test("linear search ranks same-group tables on top") {
    val res = searcher.queryLinear(byId("g0t0"), 10)
    assert(res.ranked.size == 10)
    assert(res.ranked.forall(_._1.startsWith("g0")))
  }

  test("linear search verifies every table") {
    val res = searcher.queryLinear(byId("g0t0"), 10)
    assert(res.verifications == lake.size)
  }

  test("pruning returns the same top-k set and scores as linear") {
    lake.take(5).foreach { case (qid, qEmb) =>
      val lin = searcher.queryLinear(qEmb, 10)
      val prn = searcher.queryPruning(qEmb, 10)
      assert(lin.ranked.map(_._1).toSet == prn.ranked.map(_._1).toSet, s"query $qid ids")
      val linScores = lin.ranked.map(_._2).sorted
      val prnScores = prn.ranked.map(_._2).sorted
      linScores.zip(prnScores).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
    }
  }

  test("pruning performs strictly fewer verifications than linear") {
    val prn = searcher.queryPruning(byId("g0t0"), 10)
    assert(prn.verifications < lake.size)
  }

  test("ranked results are sorted by score descending") {
    val res = searcher.queryPruning(byId("g3t2"), 10)
    assert(res.ranked.map(_._2) == res.ranked.map(_._2).sortBy(-_))
  }

  test("k larger than lake returns the whole lake") {
    val res = searcher.queryLinear(byId("g0t0"), 1000)
    assert(res.ranked.size == lake.size)
  }

  test("HNSW-backed search finds the same group with high recall") {
    val index = Search.buildColumnIndex(lake, d => new Hnsw(d, seed = 3))
    val res = searcher.queryWithIndex(byId("g1t0"), 10, index)
    val hits = res.ranked.map(_._1).count(_.startsWith("g1"))
    assert(hits >= 9, s"only $hits/10 from the right group")
    assert(res.candidates < lake.size)
  }

  test("LSH-backed search finds most of the right group") {
    val index = Search.buildColumnIndex(lake, d => new SimHashLsh(d, seed = 3))
    val res = searcher.queryWithIndex(byId("g1t0"), 10, index)
    val hits = res.ranked.map(_._1).count(_.startsWith("g1"))
    assert(hits >= 7, s"only $hits/10 from the right group")
  }

  test("index candidate generation respects tau") {
    val index = Search.buildColumnIndex(lake, d => new Hnsw(d, seed = 3))
    // tau=0.99: only near-identical columns qualify → candidates ≈ own group
    val cands = index.candidateTables(byId("g2t0"), 0.99, probe = 64)
    assert(cands.nonEmpty)
    assert(cands.count(_.startsWith("g2")) == cands.size)
  }

  test("candidateTables lists each owning table once, in first-seen order") {
    val index = Search.buildColumnIndex(lake, d => new Hnsw(d, seed = 3))
    // the same build again, read through the raw index
    val raw = new Hnsw(16, seed = 3)
    val owner = lake.flatMap { case (tid, cols) => cols.map(_ => tid) }
    lake.flatMap(_._2).zipWithIndex.foreach { case (v, i) => raw.add(i, v) }
    Seq("g0t0", "g5t3", "g7t9").foreach { qid =>
      val expected = byId(qid).flatMap(q => raw.search(q, 64).collect {
        case (c, sim) if sim >= 0.5 => owner(c)
      }).distinct
      assert(index.candidateTables(byId(qid), 0.5, probe = 64) == expected, qid)
    }
  }

  test("buildColumnIndex rejects an empty lake with a clear message") {
    val e = intercept[IllegalArgumentException](
      Search.buildColumnIndex(IndexedSeq.empty, d => new Hnsw(d)))
    assert(e.getMessage.contains("no tables"), e.getMessage)
  }

  test("buildColumnIndex rejects a lake without columns with a clear message") {
    val empty = IndexedSeq("a" -> IndexedSeq.empty[Array[Float]], "b" -> IndexedSeq.empty[Array[Float]])
    val e = intercept[IllegalArgumentException](
      Search.buildColumnIndex(empty, d => new Hnsw(d)))
    assert(e.getMessage.contains("none of the lake's 2 tables has a column"), e.getMessage)
  }

  test("buildColumnIndex rejects duplicate table ids, naming the id") {
    val dup = lake.take(3) :+ ("g0t1" -> lake(5)._2)
    val e = intercept[IllegalArgumentException](
      Search.buildColumnIndex(dup, d => new Hnsw(d)))
    assert(e.getMessage.contains("duplicate table id 'g0t1'"), e.getMessage)
  }

  test("searcher handles a query table absent from the lake") {
    val rnd = new Random(9)
    val q = IndexedSeq.fill(3)(Linalg.normalize(Array.fill(16)(rnd.nextGaussian().toFloat)))
    val res = searcher.queryPruning(q, 5)
    assert(res.ranked.size == 5)
  }

  test("UnionSearcher rejects duplicate table ids, naming the id") {
    val dup = lake.take(3) :+ ("g0t1" -> lake(5)._2)
    val e = intercept[IllegalArgumentException](new UnionSearcher(dup, tau = 0.5))
    assert(e.getMessage.contains("UnionSearcher: duplicate table id 'g0t1'"), e.getMessage)
  }

  /** A random small lake, a query, τ and k for the search properties. */
  private final class Case(val lake: IndexedSeq[(String, IndexedSeq[Array[Float]])],
                           val q: IndexedSeq[Array[Float]], val tau: Double, val k: Int)

  /** Ordinary columns live in the first three coordinates. A "far" table is
    * the single column e₃, orthogonal to them, so against an ordinary query it
    * has no τ-surviving edge and scores 0. Copies of earlier tables under new
    * ids tie with their originals. Ids are shuffled against lake order, so
    * the id tie-break is not the scan order. k runs from 1 to beyond the lake
    * size.
    */
  private val caseGen: Gen[Case] = for {
    seed     <- Gen.choose(0L, Long.MaxValue)
    n        <- Gen.choose(1, 10)
    tau      <- Gen.choose(0.2, 0.8)
    extraK   <- Gen.choose(0, n + 3)
    fromLake <- Gen.oneOf(true, false)
  } yield {
    val rnd = new Random(seed)
    def column(): Array[Float] = Linalg.normalize(Array(
      rnd.nextGaussian().toFloat, rnd.nextGaussian().toFloat, rnd.nextGaussian().toFloat, 0f))
    def table(): IndexedSeq[Array[Float]] = IndexedSeq.fill(1 + rnd.nextInt(4))(column())
    val far = IndexedSeq(Array(0f, 0f, 0f, 1f))
    val tables = (0 until n).foldLeft(IndexedSeq.empty[IndexedSeq[Array[Float]]]) { (acc, _) =>
      acc :+ (rnd.nextInt(4) match {
        case 0 if acc.nonEmpty => acc(rnd.nextInt(acc.size))
        case 1                 => far
        case _                 => table()
      })
    }
    val q = if (fromLake) tables(rnd.nextInt(n)) else table()
    val ids = rnd.shuffle((0 until n).map(i => s"t$i"))
    new Case(ids.zip(tables), q, tau, 1 + extraK)
  }

  private def check(prop: Prop): Unit =
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop).passed)

  test("the search-property lakes contain zero and positive score ties") {
    val ranked = (1L to 200L).map { i =>
      val c = caseGen.pureApply(Gen.Parameters.default, Seed(i))
      new UnionSearcher(c.lake, c.tau).queryLinear(c.q, c.lake.size).ranked.map(_._2)
    }
    def tied(scores: Seq[Double], zero: Boolean) =
      scores.filter(s => (s == 0.0) == zero).groupBy(identity).exists(_._2.size > 1)
    assert(ranked.exists(tied(_, zero = true)))
    assert(ranked.exists(tied(_, zero = false)))
  }

  test("Pruning returns exactly Linear's ranked list, ties included (property)") {
    check(Prop.forAll(caseGen) { c =>
      val searcher = new UnionSearcher(c.lake, c.tau)
      val linear = searcher.queryLinear(c.q, c.k).ranked
      linear.size == math.min(c.k, c.lake.size) &&
        searcher.queryPruning(c.q, c.k).ranked == linear
    })
  }

  test("index answers lie inside the candidate tables and score exactly verify (property)") {
    val indexes = Seq[Int => VectorIndex](d => new Hnsw(d, m = 4, seed = 3),
                                          d => new SimHashLsh(d, seed = 3))
    check(Prop.forAll(caseGen) { c =>
      val searcher = new UnionSearcher(c.lake, c.tau)
      indexes.forall { mk =>
        val index = Search.buildColumnIndex(c.lake, mk)
        val cands = index.candidateTables(c.q, c.tau, probe = 64).toSet
        searcher.queryWithIndex(c.q, c.k, index).ranked.forall { case (tid, u) =>
          cands(tid) && u == searcher.verify(c.q, tid)
        }
      }
    })
  }
}
