package repro.index

/** Hierarchical Navigable Small World graph (Malkov & Yashunin, TPAMI 2020)
  * over cosine similarity — the index the paper credits with the 3,000×
  * query-time gain on WDC.
  *
  * Faithful to the published algorithm: exponential level assignment with
  * mL = 1/ln(M); greedy descent through upper layers; beam search of width
  * efConstruction at insertion / efSearch at query; neighbour lists pruned
  * to M (2M at layer 0) with the diversity heuristic (Alg. 4).
  *
  * Memory layout (as in hnswlib): every vector is copied into one flat
  * `Array[Float]` (node i at offset i·dim); each node owns one `Int` array
  * of fixed-capacity link slots, a count followed by 2M+1 slots for layer 0
  * and by M+1 slots for each upper layer (the extra slot holds the
  * overflowing back-link until it is pruned). Search state — a visited
  * bitset and two (sim, node) binary heaps — is allocated per call, so
  * concurrent `search` calls share nothing mutable. Similarities keep the
  * sequential single-accumulator order of `Linalg.dot` (a sum in another
  * order can move a sim across τ in `ColumnIndex.candidateTables`), and the
  * heaps and the back-list sort break ties exactly as `mutable.PriorityQueue`
  * and a stable sort do; the pinned answers in HnswSpec hold the graph to
  * both.
  */
final class Hnsw(dim: Int, m: Int = 16, efConstruction: Int = 100,
                 efSearch: Int = 64, seed: Long = 42) extends VectorIndex {
  import Hnsw.SimHeap

  private val mMax0 = 2 * m
  private val levelMult = 1.0 / math.log(m.toDouble)
  private val rnd = new scala.util.Random(seed)

  /** link block of layer 0: a count and 2M+1 slots; upper layers: count + M+1 */
  private val block0 = mMax0 + 2
  private val blockUp = m + 2

  private var n = 0
  private var vectors = new Array[Float](0)
  private var extIds = new Array[Int](0)
  private var links = new Array[Array[Int]](0)
  private var entryPoint = -1
  private var maxLayer = -1

  /** back-list pruning scratch: the overflowing list and its sims to the owner */
  private val pruneIds = new Array[Int](mMax0 + 1)
  private val pruneSims = new Array[Float](mMax0 + 1)
  /** diversity-check scratch: a candidate's sims to up to four chosen neighbours */
  private val groupSims = new Array[Float](4)

  @inline private def layerOffset(layer: Int): Int =
    if (layer == 0) 0 else block0 + (layer - 1) * blockUp

  @inline private def levels(node: Int): Int =
    (links(node).length - block0) / blockUp + 1

  /** dot(vector of `node`, q[qOff until qOff+dim]), in `Linalg.dot`'s order */
  @inline private def sim(node: Int, q: Array[Float], qOff: Int): Float = {
    val v = vectors
    val off = node * dim
    var s = 0.0f; var i = 0
    while (i < dim) { s += v(off + i) * q(qOff + i); i += 1 }
    s
  }

  /** out(j) = sim(nodes(from + j), q, qOff) for j < cnt. Four dot products
    * run side by side, each with its own single accumulator in `Linalg.dot`'s
    * order, so every sum is the one `sim` computes; only the independent
    * chains overlap in the pipeline.
    */
  private def simBatch(q: Array[Float], qOff: Int, nodes: Array[Int], from: Int,
                       cnt: Int, out: Array[Float]): Unit = {
    val v = vectors
    var j = 0
    while (j + 4 <= cnt) {
      val o0 = nodes(from + j) * dim; val o1 = nodes(from + j + 1) * dim
      val o2 = nodes(from + j + 2) * dim; val o3 = nodes(from + j + 3) * dim
      var s0 = 0.0f; var s1 = 0.0f; var s2 = 0.0f; var s3 = 0.0f
      var i = 0
      while (i < dim) {
        val x = q(qOff + i)
        s0 += v(o0 + i) * x; s1 += v(o1 + i) * x
        s2 += v(o2 + i) * x; s3 += v(o3 + i) * x
        i += 1
      }
      out(j) = s0; out(j + 1) = s1; out(j + 2) = s2; out(j + 3) = s3
      j += 4
    }
    while (j < cnt) { out(j) = sim(nodes(from + j), q, qOff); j += 1 }
  }

  override def size: Int = n

  override def add(id: Int, vec: Array[Float]): Unit = {
    require(vec.length == dim,
      s"Hnsw.add: vector for id $id has ${vec.length} components, the index has dim $dim")
    var i = 0
    while (i < dim) {
      val x = vec(i)
      require(!x.isNaN && !x.isInfinite,
        s"Hnsw.add: vector for id $id has a non-finite component $x at position $i")
      i += 1
    }
    val node = n
    if (node == extIds.length) grow()
    System.arraycopy(vec, 0, vectors, node * dim, dim)
    extIds(node) = id
    val level = math.floor(-math.log(rnd.nextDouble() + 1e-12) * levelMult).toInt
    links(node) = new Array[Int](block0 + level * blockUp)
    n += 1

    if (entryPoint < 0) { entryPoint = node; maxLayer = level; return }

    val q = vectors
    val qOff = node * dim
    var ep = entryPoint
    // greedy descent on layers above the new node's level
    var layer = maxLayer
    while (layer > level) {
      ep = greedyClosest(q, qOff, ep, layer)
      layer -= 1
    }
    // beam-search insert on each layer ≤ min(level, maxLayer)
    layer = math.min(level, maxLayer)
    while (layer >= 0) {
      val cands = searchLayer(q, qOff, ep, efConstruction, layer)
      val nc = cands.drainBestFirst()
      val cap = if (layer == 0) mMax0 else m
      val own = links(node)
      val ownOff = layerOffset(layer)
      own(ownOff) = selectHeuristic(cands.ids, cands.sims, nc, m, own, ownOff)
      var s = 0
      while (s < own(ownOff)) {
        addBackLink(own(ownOff + 1 + s), node, layer, cap)
        s += 1
      }
      ep = cands.ids(0)
      layer -= 1
    }
    if (level > maxLayer) { maxLayer = level; entryPoint = node }
  }

  /** doubles the vector, id and link storage */
  private def grow(): Unit = {
    val cap = math.max(16, 2 * extIds.length)
    vectors = java.util.Arrays.copyOf(vectors, cap * dim)
    extIds = java.util.Arrays.copyOf(extIds, cap)
    links = java.util.Arrays.copyOf(links, cap)
  }

  /** appends `node` to `nb`'s list on `layer`; past `cap` links, re-prunes
    * the list with the same diversity heuristic, keyed on `nb`
    */
  private def addBackLink(nb: Int, node: Int, layer: Int, cap: Int): Unit = {
    val back = links(nb)
    val off = layerOffset(layer)
    val cnt = back(off) + 1
    back(off + cnt) = node
    back(off) = cnt
    if (cnt > cap) {
      System.arraycopy(back, off + 1, pruneIds, 0, cnt)
      simBatch(vectors, nb * dim, pruneIds, 0, cnt, pruneSims)
      // stable sort by similarity to nb, descending (insertion sort, ≤ 2M+1 items)
      var i = 1
      while (i < cnt) {
        val x = pruneIds(i); val sx = pruneSims(i)
        var j = i
        while (j > 0 && java.lang.Float.compare(pruneSims(j - 1), sx) < 0) {
          pruneIds(j) = pruneIds(j - 1); pruneSims(j) = pruneSims(j - 1); j -= 1
        }
        pruneIds(j) = x; pruneSims(j) = sx
        i += 1
      }
      back(off) = selectHeuristic(pruneIds, pruneSims, cnt, cap, back, off)
    }
  }

  override def search(query: Array[Float], k: Int): IndexedSeq[(Int, Float)] = {
    if (entryPoint < 0) return IndexedSeq.empty
    var ep = entryPoint
    var layer = maxLayer
    while (layer > 0) {
      ep = greedyClosest(query, 0, ep, layer)
      layer -= 1
    }
    val res = searchLayer(query, 0, ep, math.max(efSearch, k), 0)
    val r = math.min(k, res.drainBestFirst())
    val out = new Array[(Int, Float)](r)
    var i = 0
    while (i < r) { out(i) = (extIds(res.ids(i)), res.sims(i)); i += 1 }
    scala.collection.immutable.ArraySeq.unsafeWrapArray(out)
  }

  /** Neighbour selection heuristic (Malkov & Yashunin, Alg. 4): pick up to
    * `cap` of the `nc` best-first candidates that are closer to the query
    * point than to any already-selected neighbour — diversity keeps
    * clustered regions navigable. Remaining slots are filled with the
    * closest leftovers. Writes the choice to `out(outOff+1 …)` and returns
    * its size.
    */
  private def selectHeuristic(ids: Array[Int], sims: Array[Float], nc: Int, cap: Int,
                              out: Array[Int], outOff: Int): Int = {
    var count = 0
    var i = 0
    while (i < nc && count < cap) {
      val c = ids(i)
      val simToQ = sims(i)
      var diverse = true
      var s = 0
      while (diverse && s < count) {
        // score c against the next (up to) four chosen neighbours together
        val g = math.min(4, count - s)
        simBatch(vectors, c * dim, out, outOff + 1 + s, g, groupSims)
        var t = 0
        while (diverse && t < g) { diverse = groupSims(t) < simToQ; t += 1 }
        s += g
      }
      if (diverse) { out(outOff + 1 + count) = c; count += 1 }
      i += 1
    }
    i = 0
    while (i < nc && count < cap) {
      val c = ids(i)
      var chosen = false
      var s = 0
      while (!chosen && s < count) { chosen = out(outOff + 1 + s) == c; s += 1 }
      if (!chosen) { out(outOff + 1 + count) = c; count += 1 }
      i += 1
    }
    count
  }

  /** greedy hill-climb to the locally closest node on `layer` */
  private def greedyClosest(q: Array[Float], qOff: Int, start: Int, layer: Int): Int = {
    val sims = new Array[Float](mMax0 + 1)
    val off = layerOffset(layer)
    var cur = start
    var curSim = sim(cur, q, qOff)
    var improved = true
    while (improved) {
      improved = false
      val nbs = links(cur)
      if (off < nbs.length) {
        val cnt = nbs(off)
        simBatch(q, qOff, nbs, off + 1, cnt, sims)
        var i = 0
        while (i < cnt) {
          if (sims(i) > curSim) { curSim = sims(i); cur = nbs(off + 1 + i); improved = true }
          i += 1
        }
      }
    }
    cur
  }

  /** beam search of width `ef` on `layer`; returns the result heap */
  private def searchLayer(q: Array[Float], qOff: Int, ep: Int, ef: Int,
                          layer: Int): SimHeap = {
    val visited = new java.util.BitSet(n)
    visited.set(ep)
    val cand = new SimHeap(2 * ef, maxFirst = true)
    val res  = new SimHeap(ef + 1, maxFirst = false)
    val fresh = new Array[Int](mMax0 + 1)
    val freshSims = new Array[Float](mMax0 + 1)
    val off = layerOffset(layer)
    val epSim = sim(ep, q, qOff)
    cand.push(epSim, ep); res.push(epSim, ep)
    var done = false
    while (!done && cand.size > 0) {
      val cSim = cand.headSim
      val c = cand.pop()
      if (cSim < res.headSim && res.size >= ef) {
        done = true // nothing closer can be found
      } else if (off < links(c).length) {
        // gather the unvisited neighbours, score them together, then admit
        // them in list order
        val nbs = links(c)
        var cnt = 0
        var i = 1
        while (i <= nbs(off)) {
          val nb = nbs(off + i)
          if (!visited.get(nb)) { visited.set(nb); fresh(cnt) = nb; cnt += 1 }
          i += 1
        }
        simBatch(q, qOff, fresh, 0, cnt, freshSims)
        i = 0
        while (i < cnt) {
          val s = freshSims(i)
          if (res.size < ef || s > res.headSim) {
            cand.push(s, fresh(i))
            res.push(s, fresh(i))
            if (res.size > ef) res.pop()
          }
          i += 1
        }
      }
    }
    res
  }

  /** allocated vector floats, ids and link slots with their counts */
  override def memoryBytes: Long = {
    var linkInts = 0L
    var node = 0
    while (node < n) { linkInts += links(node).length; node += 1 }
    4L * vectors.length + 4L * extIds.length + 4L * linkInts
  }

  /** links currently held over all nodes and layers */
  private[index] def linksInUse: Long = {
    var total = 0L
    var node = 0
    while (node < n) {
      var l = 0
      while (l < levels(node)) { total += links(node)(layerOffset(l)); l += 1 }
      node += 1
    }
    total
  }
}

object Hnsw {

  /** Binary heap of (sim, node) pairs on parallel primitive arrays, ordered
    * by `java.lang.Float.compare` on sim: largest first when `maxFirst`,
    * else smallest first. Sift-up and sift-down follow
    * `mutable.PriorityQueue` step for step, so equal sims leave the heap in
    * the same order as they would there.
    */
  private final class SimHeap(initialCapacity: Int, maxFirst: Boolean) {
    var sims = new Array[Float](initialCapacity)
    var ids = new Array[Int](initialCapacity)
    var size = 0

    def headSim: Float = sims(0)

    /** true when entry a sits strictly below entry b in heap order */
    @inline private def below(a: Int, b: Int): Boolean =
      if (maxFirst) java.lang.Float.compare(sims(a), sims(b)) < 0
      else java.lang.Float.compare(sims(b), sims(a)) < 0

    @inline private def swap(a: Int, b: Int): Unit = {
      val s = sims(a); sims(a) = sims(b); sims(b) = s
      val i = ids(a); ids(a) = ids(b); ids(b) = i
    }

    def push(sim: Float, id: Int): Unit = {
      if (size == sims.length) {
        sims = java.util.Arrays.copyOf(sims, math.max(4, 2 * size))
        ids = java.util.Arrays.copyOf(ids, math.max(4, 2 * size))
      }
      sims(size) = sim; ids(size) = id
      var k = size
      size += 1
      while (k > 0 && below((k - 1) / 2, k)) { swap(k, (k - 1) / 2); k = (k - 1) / 2 }
    }

    /** removes the head and returns its node */
    def pop(): Int = {
      val top = ids(0)
      size -= 1
      sims(0) = sims(size); ids(0) = ids(size)
      siftDown()
      top
    }

    private def siftDown(): Unit = {
      var k = 0
      var done = false
      while (!done && 2 * k + 1 < size) {
        var j = 2 * k + 1
        if (j + 1 < size && below(j, j + 1)) j += 1
        if (!below(k, j)) done = true
        else { swap(k, j); k = j }
      }
    }

    /** Pops every entry, writing the popped ones back from the end, so
      * `ids`/`sims`(0 until n) end up in reverse pop order — best-first for
      * a smallest-first heap. Returns n.
      */
    def drainBestFirst(): Int = {
      val total = size
      while (size > 0) {
        val s = sims(0); val i = ids(0)
        pop()
        sims(size) = s; ids(size) = i
      }
      total
    }
  }
}
