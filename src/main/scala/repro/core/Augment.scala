package repro.core

import scala.util.Random

/** Table-level data augmentation (paper Table 1 + Appendix B.1).
  *
  * The paper picks one operator by ablation and trains with it; on SANTOS
  * that is drop_col, the default here. drop_cell and the column-level
  * operators are kept; the token- and row-level ones are not (DESIGN.md §2).
  * An operator returns the augmented view together with the column alignment
  * `augIdx -> origIdx`: in the multi-column contrastive setting the aligned
  * pairs form the positives of Eq. 3 (Figure 5 of the paper).
  */
object Augment {

  /** Augmented view of a table plus the alignment of its columns to the
    * columns of the original table, with distinct, in-range indices. Column
    * `j` of the view is original column `alignment(j)`, either unchanged
    * (the column-level operators return a column selection,
    * `table.columns == alignment.map(original.columns)`) or with some cells
    * rewritten (drop_cell). Training reuses the original's own-column
    * features for every unchanged column ([[Featurizer.viewInputs]]).
    */
  final case class View(table: TableData, alignment: IndexedSeq[Int])

  type Op = (TableData, Random) => View

  /** drop_cell — blank a random cell in each column (cell-level). */
  def dropCell(t: TableData, rnd: Random): View = {
    val cols = t.columns.map { c =>
      if (c.values.isEmpty) c
      else {
        val i = rnd.nextInt(c.values.size)
        c.copy(values = c.values.updated(i, ""))
      }
    }
    View(t.copy(columns = cols), t.columns.indices)
  }

  /** drop_col — drop a random non-empty subset of columns (at most half,
    * always keeping at least one column). The paper's ablation found this the
    * best operator on SANTOS Small.
    */
  def dropCol(t: TableData, rnd: Random): View = {
    if (t.numCols <= 1) return View(t, t.columns.indices)
    val nDrop = 1 + rnd.nextInt(math.max(1, t.numCols / 2))
    val drop  = rnd.shuffle(t.columns.indices.toIndexedSeq).take(nDrop).toSet
    val keep  = t.columns.indices.filterNot(drop.contains).toIndexedSeq
    View(t.copy(columns = keep.map(t.columns)), keep)
  }

  /** drop_num_col — drop a random subset of the numeric columns. */
  def dropNumCol(t: TableData, rnd: Random): View = {
    val numeric = t.columns.indices.filter(i => t.columns(i).isNumeric)
    if (numeric.isEmpty || numeric.size == t.numCols)
      return View(t, t.columns.indices)
    val nDrop = 1 + rnd.nextInt(numeric.size)
    val drop  = rnd.shuffle(numeric.toIndexedSeq).take(nDrop).toSet
    val keep  = t.columns.indices.filterNot(drop.contains).toIndexedSeq
    View(t.copy(columns = keep.map(t.columns)), keep)
  }

  /** drop_nan_col — drop columns that are mostly blank/NaN. */
  def dropNanCol(t: TableData, rnd: Random): View = {
    def mostlyNan(c: ColumnData): Boolean = {
      if (c.values.isEmpty) true
      else {
        val bad = c.values.count(v =>
          v == null || v.trim.isEmpty || v.equalsIgnoreCase("nan"))
        bad * 2 > c.values.size
      }
    }
    val keep = t.columns.indices.filterNot(i => mostlyNan(t.columns(i))).toIndexedSeq
    if (keep.isEmpty || keep.size == t.numCols) View(t, t.columns.indices)
    else View(t.copy(columns = keep.map(t.columns)), keep)
  }

  /** shuffle_col — permute the column order. */
  def shuffleCol(t: TableData, rnd: Random): View = {
    val perm = rnd.shuffle(t.columns.indices.toIndexedSeq)
    View(t.copy(columns = perm.map(t.columns)), perm)
  }

  /** Operator registry keyed by the paper's operator names. */
  val byName: Map[String, Op] = Map(
    "drop_cell"    -> (dropCell _),
    "drop_col"     -> (dropCol _),
    "drop_num_col" -> (dropNumCol _),
    "drop_nan_col" -> (dropNanCol _),
    "shuffle_col"  -> (shuffleCol _),
  )
}
