package repro.baselines

import repro.core._

/** SATO baseline (Zhang et al., PVLDB'20) — Sherlock plus table context
  * modelled as an LDA topic vector over the whole table.
  *
  * Simulation: the topic half is a *coarse* (low-dimensional, `topicDim`)
  * hashed token distribution of the whole table, appended to the Sherlock
  * type prediction — low-dimensional like LDA's topic mixture, so it
  * partially disambiguates homograph columns (same values, different tables
  * → different topics) but remains coarser than Starmie's per-column
  * contextualization, matching the paper's ordering Sherlock < SATO < Starmie
  * on context-heavy lakes.
  */
final class SatoEncoder(feat: Featurizer, sherlock: SherlockEncoder,
                        topicWeight: Float = 0.4f,
                        topicDim: Int = 64) extends ColumnEncoder {
  val name = "sato"
  val dim: Int = sherlock.dim + topicDim
  private val topicFeat = new Featurizer(FeatConfig(hashDim = topicDim, seed = 0x7a21))

  def encodeTable(t: TableData): IndexedSeq[Array[Float]] = {
    val typePred = sherlock.encodeTable(t)
    val topic    = topicFeat.tableTopic(t)
    typePred.map { tp =>
      val out = new Array[Float](dim)
      var i = 0
      while (i < tp.length) { out(i) = (1.0f - topicWeight) * tp(i); i += 1 }
      i = 0
      while (i < topic.length) { out(tp.length + i) = topicWeight * topic(i); i += 1 }
      Linalg.normalize(out)
    }
  }
}
