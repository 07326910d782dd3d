package repro.core

import scala.util.hashing.MurmurHash3

/** Column featurization shared by the Starmie/SingleCol encoders and the
  * Sherlock/SATO baselines.
  *
  * This is the stand-in for the RoBERTa token-embedding stack (see
  * DESIGN.md §2): a signed feature-hashed bag of tokens captures value
  * identity, a small statistics block captures shape (length, numeric-ness,
  * distribution), and — for the multi-column encoder — the mean feature
  * vector of the *sibling* columns supplies the table context that the
  * paper's self-attention provides.
  */
final case class FeatConfig(hashDim: Int = 512, seed: Int = 0x5f3a,
                            /** scale of the context block relative to the
                              * own block: large enough to separate homographs
                              * (Figure 1), small enough that sibling-subset
                              * variance between two projections of the same
                              * base table does not drown the value match
                              */
                            ctxWeight: Float = 0.5f) {
  val statDim: Int = 12
  /** dimension of a single column's own feature block */
  val colDim: Int = hashDim + statDim
  /** input dimension of the contextualized (multi-column) encoder */
  val contextDim: Int = 2 * colDim
}

class Featurizer(val cfg: FeatConfig = FeatConfig()) extends Serializable {

  /** Signed feature hashing of the column's token multiset, weighted by
    * sqrt(tf) (sub-linear term frequency), L2-normalized.
    */
  def hashedTokens(tokens: Seq[String]): Array[Float] = {
    val v = new Array[Float](cfg.hashDim)
    if (tokens.isEmpty) return v
    val tf = tokens.groupBy(identity).view.mapValues(_.size)
    tf.foreach { case (tok, n) =>
      val h    = MurmurHash3.stringHash(tok, cfg.seed)
      val idx  = math.floorMod(h, cfg.hashDim)
      val sign = if (((h >>> 16) & 1) == 0) 1.0f else -1.0f
      v(idx) += sign * math.sqrt(n.toDouble).toFloat
    }
    Linalg.normalize(v)
  }

  /** Shape statistics of the column, each squashed into [-1, 1]. */
  def stats(c: ColumnData): Array[Float] = {
    val s  = new Array[Float](cfg.statDim)
    val vs = c.values
    if (vs.isEmpty) return s
    def squash(x: Double): Float = math.tanh(x).toFloat
    val lens = vs.map(v => if (v == null) 0 else v.length.toDouble)
    val nTok = vs.map(v => Tokenizer.tokenize(v).size.toDouble)
    val mean = lens.sum / lens.size
    val varL = lens.map(l => (l - mean) * (l - mean)).sum / lens.size
    val chars    = vs.iterator.filter(_ != null).flatMap(_.iterator).toSeq
    val nChars   = math.max(1, chars.size)
    val nums     = vs.filter(Tokenizer.isNumeric).map(_.toDouble)
    def logSym(x: Double): Double = math.signum(x) * math.log1p(math.abs(x))
    s(0) = squash(math.log1p(vs.size.toDouble) / 5.0)
    s(1) = squash(mean / 20.0)
    s(2) = squash(math.sqrt(varL) / 20.0)
    s(3) = c.numericFraction.toFloat
    s(4) = squash(nTok.sum / nTok.size / 5.0)
    s(5) = (vs.distinct.size.toDouble / vs.size).toFloat
    s(6) = (chars.count(_.isDigit).toDouble / nChars).toFloat
    s(7) = (chars.count(_.isLetter).toDouble / nChars).toFloat
    if (nums.nonEmpty) {
      val nm = nums.sum / nums.size
      val nv = nums.map(x => (x - nm) * (x - nm)).sum / nums.size
      s(8)  = squash(logSym(nm) / 10.0)
      s(9)  = squash(logSym(math.sqrt(nv)) / 10.0)
      s(10) = squash(logSym(nums.min) / 10.0)
      s(11) = squash(logSym(nums.max) / 10.0)
    }
    s
  }

  /** A column's own feature block: [hashed tokens ; 0.3 × unit-norm stats],
    * L2-normalized, so token identity dominates but shape still separates
    * e.g. numeric-vs-text columns with colliding hashes.
    */
  def columnFeatures(c: ColumnData): Array[Float] = {
    val out = new Array[Float](cfg.colDim)
    val h   = hashedTokens(c.tokens)
    System.arraycopy(h, 0, out, 0, cfg.hashDim)
    val st = Linalg.normalized(stats(c))
    var i = 0
    while (i < cfg.statDim) { out(cfg.hashDim + i) = 0.3f * st(i); i += 1 }
    Linalg.normalize(out)
  }

  /** Context block for column `i`: the L2-normalized mean of the *other*
    * columns' own features. Zero for single-column tables.
    */
  def contextFeatures(colFeats: IndexedSeq[Array[Float]], i: Int): Array[Float] = {
    val ctx = new Array[Float](cfg.colDim)
    var k = 0; var n = 0
    while (k < colFeats.size) {
      if (k != i) { Linalg.axpy(1.0f, colFeats(k), ctx); n += 1 }
      k += 1
    }
    if (n > 0) Linalg.normalize(ctx)
    ctx
  }

  /** Contextualized encoder inputs for every column of a table:
    * x_i = [own_i ; ctxWeight · context_i], dimension [[FeatConfig.contextDim]].
    */
  def tableInputs(t: TableData): IndexedSeq[Array[Float]] =
    contextInputs(t.columns.map(columnFeatures))

  /** [[tableInputs]] from the columns' own feature blocks, in column order.
    * A column's own block depends on that column alone, so the inputs of a
    * column selection are `contextInputs(kept.map(own))`.
    */
  def contextInputs(own: IndexedSeq[Array[Float]]): IndexedSeq[Array[Float]] =
    own.indices.map { i =>
      val x = new Array[Float](cfg.contextDim)
      System.arraycopy(own(i), 0, x, 0, cfg.colDim)
      val ctx = contextFeatures(own, i)
      var k = 0
      while (k < cfg.colDim) { x(cfg.colDim + k) = cfg.ctxWeight * ctx(k); k += 1 }
      x
    }

  /** [[tableInputs]] of `view`, an augmented view of `t`, given `own`, the
    * own feature blocks of `t`'s columns: a view column equal to its
    * original reuses that column's block, and only rewritten columns are
    * featurized again.
    */
  def viewInputs(t: TableData, own: IndexedSeq[Array[Float]],
                 view: Augment.View): IndexedSeq[Array[Float]] =
    contextInputs(view.alignment.indices.map { j =>
      val c = view.table.columns(j)
      val o = view.alignment(j)
      if (c == t.columns(o)) own(o) else columnFeatures(c)
    })

  /** Whole-table token distribution — the SATO "topic" stand-in. */
  def tableTopic(t: TableData): Array[Float] =
    hashedTokens(t.columns.flatMap(_.tokens))
}
