package repro.core

import scala.util.Random

/** SimCLR-style contrastive learning of the column encoder (paper §3,
  * Algorithm 1) with the multi-column aligned-pair loss of Eq. 3.
  *
  * The encoder is `z = normalize(W·x)` (see DESIGN.md §2 for the
  * RoBERTa→linear substitution); the loss is the exact NT-Xent of Eq. 1/2:
  *
  *   ℓ(i,j) = −log [ exp(sim(z_i,z_j)/τ) / Σ_{k≠i,j} exp(sim(z_i,z_k)/τ) ]
  *
  * averaged over the aligned positive pairs, both directions. Gradients are
  * derived analytically and checked numerically in the tests.
  */
object Contrastive {

  final case class TrainConfig(
      embedDim: Int    = 128,
      temperature: Double = 0.07, // paper: fixed to 0.07 empirically
      batchTables: Int = 8,
      epochs: Int      = 12,
      maxSteps: Int    = 1200,
      lr: Double       = 0.2,
      op: String       = "drop_col", // paper ablation: best on SANTOS Small
      seed: Long       = 42,
      /** L2 pull toward the init W₀ — the analogue of fine-tuning staying
        * close to the pre-trained prior; curbs memorization of in-batch
        * false negatives (same-template tables drawn as "random" negatives).
        */
      anchorWeight: Double = 0.02,
      /** input-feature dropout during training (RoBERTa-style regularizer) */
      dropout: Double = 0.3,
  )

  /** Loss (Eq. 1–3) for embeddings `z` and positive index pairs. Each pair
    * (i, j) contributes ℓ(i,j) + ℓ(j,i), averaged by 2|P|.
    */
  def loss(z: IndexedSeq[Array[Float]], positives: Seq[(Int, Int)], tau: Double): Double = {
    if (positives.isEmpty) return 0.0
    val s = Matching.simMatrix(z, z)
    val directed = positives.flatMap { case (i, j) => Seq((i, j), (j, i)) }
    val total = directed.iterator.map { case (i, j) =>
      var denom = 0.0
      var k = 0
      while (k < z.size) {
        if (k != i && k != j) denom += math.exp(s(i)(k) / tau)
        k += 1
      }
      -s(i)(j) / tau + math.log(denom)
    }.sum
    total / directed.size
  }

  /** One SGD step on W for a batch of inputs `xs` with `positives`.
    * Returns the batch loss. W is updated in place. When `w0` is given,
    * an L2 anchor `anchor·‖W−W₀‖²/2` is added to the objective.
    */
  def step(w: Array[Array[Float]], xs: IndexedSeq[Array[Float]],
           positives: Seq[(Int, Int)], tau: Double, lr: Double,
           anchor: Double = 0.0, w0: Array[Array[Float]] = null): Double = {
    if (positives.isEmpty) return 0.0
    val n  = xs.size
    val us = xs.map(Linalg.matVec(w, _))
    val zs = us.map(Linalg.normalized)
    val s  = Matching.simMatrix(zs, zs)

    val directed = positives.flatMap { case (i, j) => Seq((i, j), (j, i)) }
    val scale    = 1.0 / directed.size
    // g(i)(j) accumulates ∂L/∂s_ij treating entries as directed
    val g = Array.ofDim[Double](n, n)
    var lossAcc = 0.0
    directed.foreach { case (i, j) =>
      var denom = 0.0
      var k = 0
      while (k < n) {
        if (k != i && k != j) denom += math.exp(s(i)(k) / tau)
        k += 1
      }
      lossAcc += (-s(i)(j) / tau + math.log(denom)) * scale
      g(i)(j) += -scale / tau
      k = 0
      while (k < n) {
        if (k != i && k != j) g(i)(k) += scale / tau * math.exp(s(i)(k) / tau) / denom
        k += 1
      }
    }

    // back-prop: ∂L/∂z_i = Σ_j (g_ij + g_ji) z_j ; through the normalization
    // ∂L/∂u_i = (∂L/∂z_i − (∂L/∂z_i·z_i) z_i) / ‖u_i‖ ; then rank-1 into W.
    val gradW = Linalg.zeros(w.length, w(0).length)
    var i = 0
    while (i < n) {
      val dz = new Array[Float](zs(i).length)
      var j = 0
      while (j < n) {
        val c = (g(i)(j) + g(j)(i)).toFloat
        if (c != 0.0f) Linalg.axpy(c, zs(j), dz)
        j += 1
      }
      val uNorm = math.max(Linalg.norm(us(i)), 1e-8f)
      val proj  = Linalg.dot(dz, zs(i))
      val du    = new Array[Float](dz.length)
      var r = 0
      while (r < dz.length) { du(r) = (dz(r) - proj * zs(i)(r)) / uNorm; r += 1 }
      Linalg.outerAdd(gradW, 1.0f, du, xs(i))
      i += 1
    }
    i = 0
    while (i < w.length) {
      var c = 0
      while (c < w(i).length) {
        val anchorGrad =
          if (w0 != null && anchor > 0) anchor * (w(i)(c) - w0(i)(c)) else 0.0
        w(i)(c) -= (lr * (gradW(i)(c) + anchorGrad)).toFloat
        c += 1
      }
      i += 1
    }
    lossAcc
  }

  /** Per-example inverted dropout mask for the training inputs. */
  private def applyDropout(x: Array[Float], p: Double, rnd: Random): Array[Float] =
    if (p <= 0) x
    else {
      val scale = (1.0 / (1.0 - p)).toFloat
      x.map(v => if (rnd.nextDouble() < p) 0.0f else v * scale)
    }

  /** Multi-column training (paper §3.3): batches are whole tables; the
    * augmentation operator produces an aligned view; positives are the
    * aligned column pairs; every other pair in the batch — unaligned columns
    * of the same table and all columns of other tables — is a negative.
    * Returns the trained weight matrix (embedDim × contextDim).
    */
  def trainMultiColumn(tables: Seq[TableData], feat: Featurizer,
                       cfg: TrainConfig = TrainConfig()): Array[Array[Float]] = {
    require(Augment.byName.contains(cfg.op),
      s"trainMultiColumn: unknown augmentation operator '${cfg.op}'; known: " +
        Augment.byName.keys.toSeq.sorted.mkString(", "))
    val op  = Augment.byName(cfg.op)
    val rnd = new Random(cfg.seed)
    val w0  = Linalg.randomMatrix(cfg.embedDim, feat.cfg.contextDim, cfg.seed + 1)
    val w   = w0.map(_.clone())
    var steps = 0
    var ep = 0
    while (ep < cfg.epochs && steps < cfg.maxSteps) {
      val shuffled = rnd.shuffle(tables.toIndexedSeq)
      shuffled.grouped(cfg.batchTables).foreach { batch =>
        if (steps < cfg.maxSteps) {
          val xs  = scala.collection.mutable.ArrayBuffer[Array[Float]]()
          val pos = scala.collection.mutable.ArrayBuffer[(Int, Int)]()
          batch.foreach { t =>
            val view    = op(t, rnd)
            // the view's unchanged columns reuse the original's own-column
            // features (Augment.View)
            val own     = t.columns.map(feat.columnFeatures)
            val oriBase = xs.size
            xs ++= feat.contextInputs(own).map(applyDropout(_, cfg.dropout, rnd))
            val augBase = xs.size
            xs ++= feat.viewInputs(t, own, view).map(applyDropout(_, cfg.dropout, rnd))
            view.alignment.zipWithIndex.foreach { case (origIdx, augIdx) =>
              pos += ((oriBase + origIdx, augBase + augIdx))
            }
          }
          step(w, xs.toIndexedSeq, pos.toSeq, cfg.temperature, cfg.lr,
               cfg.anchorWeight, w0)
          steps += 1
        }
      }
      ep += 1
    }
    w
  }

  /** Single-column training (paper §3.2): batches are individual columns;
    * the augmentation operator is uniform value sampling; every other column
    * in the batch is a negative. Returns embedDim × colDim weights.
    */
  def trainSingleColumn(tables: Seq[TableData], feat: Featurizer,
                        cfg: TrainConfig = TrainConfig()): Array[Array[Float]] = {
    val rnd  = new Random(cfg.seed)
    val w0   = Linalg.randomMatrix(cfg.embedDim, feat.cfg.colDim, cfg.seed + 1)
    val w    = w0.map(_.clone())
    val cols = tables.flatMap(_.columns).toIndexedSeq
    val batchCols = cfg.batchTables * 6
    var steps = 0
    var ep = 0
    while (ep < cfg.epochs && steps < cfg.maxSteps) {
      val shuffled = rnd.shuffle(cols)
      shuffled.grouped(batchCols).foreach { batch =>
        if (steps < cfg.maxSteps) {
          val n = batch.size
          val xs = scala.collection.mutable.ArrayBuffer[Array[Float]]()
          batch.foreach(c => xs += applyDropout(feat.columnFeatures(c), cfg.dropout, rnd))
          batch.foreach { c =>
            val keepN = math.max(1, c.values.size / 2)
            val aug   = ColumnData(c.name,
              rnd.shuffle(c.values).take(keepN))
            xs += applyDropout(feat.columnFeatures(aug), cfg.dropout, rnd)
          }
          val pos = (0 until n).map(i => (i, i + n))
          step(w, xs.toIndexedSeq, pos, cfg.temperature, cfg.lr,
               cfg.anchorWeight, w0)
          steps += 1
        }
      }
      ep += 1
    }
    w
  }
}
