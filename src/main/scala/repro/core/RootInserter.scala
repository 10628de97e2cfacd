package repro.core

/** The entry lists a [[RootInserter]] reads of the index built from earlier
  * roots: the live [[RlcIndex]] or its [[FlatRlcIndex]] snapshot. The list
  * `L_out(v)` (`out`) or `L_in(v)` is `hops/mrs[from, to)`, sorted by the
  * hop's access id `aid`.
  */
trait CaseOne {
  def aid: Array[Int]
  def hops(v: Int, out: Boolean): Array[Int]
  def mrs(v: Int, out: Boolean): Array[Long]
  def from(v: Int, out: Boolean): Int
  def to(v: Int, out: Boolean): Int
}

/** Algorithm 2's insert protocol for one search root, shared by every
  * builder: PR2 by access id, then PR1 as the root's own entries (Case 2)
  * plus a Case-1 join over `view`, which must hold exactly the entries of
  * the roots before `root` and must not change during the root's search
  * (DESIGN.md §6).
  *
  * Since the view is frozen, the root's own `L_in(root)` and `L_out(root)`
  * are loaded once, into per-hop `[from, to)` probe tables, and each
  * Case-1 join becomes a scan of the visited vertex's list: only an entry
  * carrying the probed MR looks its hop up in the table (pruned landmark
  * labeling's root-side table). The root's own entries are chained per
  * vertex and direction through the recorded entries. All of this state
  * lives in `scratch`, stamped by root, so an inserter allocates nothing
  * per visit; one inserter at a time may use a scratch.
  *
  * Kept entries are recorded in `meta` (the vertex, with bit 30 set for
  * `L_out`) and `mrs`, the first `n` slots, in visit order;
  * [[RootInserter.append]] adds them to the index. The arrays belong to
  * `scratch`, so the next inserter on it overwrites them.
  */
final class RootInserter(view: CaseOne, root: Int, scratch: KbsScratch) extends Inserter {
  private val aid     = view.aid
  private val rootAid = aid(root)
  private val stamp   = { scratch.rootStamp += 1; scratch.rootStamp }
  private val inMrs   = view.mrs(root, false)
  private val outMrs  = view.mrs(root, true)
  var n: Int = 0

  load(scratch.inProbe, view.hops(root, false), view.from(root, false), view.to(root, false))
  load(scratch.outProbe, view.hops(root, true), view.from(root, true), view.to(root, true))

  def meta: Array[Int] = scratch.meta
  def mrs: Array[Long] = scratch.mrs

  /** Point every hop of `hops[from, to)` at its run of entries. */
  private def load(probe: Array[Int], hops: Array[Int], from: Int, to: Int): Unit = {
    var i = from
    while (i < to) {
      val h = hops(i)
      var j = i + 1
      while (j < to && hops(j) == h) j += 1
      probe(3 * h) = stamp; probe(3 * h + 1) = i; probe(3 * h + 2) = j
      i = j
    }
  }

  /** Case 1 against the root's own list: does an entry `(x, mr)` of `y`'s
    * list in the view have `(x, mr)` in the root's list indexed by `probe`?
    */
  private def joins(y: Int, out: Boolean, probe: Array[Int], rootMrs: Array[Long], mr: Long): Boolean = {
    val hops = view.hops(y, out)
    val mrs  = view.mrs(y, out)
    var i = view.from(y, out)
    val end = view.to(y, out)
    while (i < end) {
      if (mrs(i) == mr) {
        val p = 3 * hops(i)
        if (probe(p) == stamp) {
          var j = probe(p + 1)
          val e = probe(p + 2)
          while (j < e) { if (rootMrs(j) == mr) return true; j += 1 }
        }
      }
      i += 1
    }
    false
  }

  /** Is `(root, mr)` already recorded in list `key` = 2·vertex + (1 for `L_out`)? */
  private def has(key: Int, mr: Long): Boolean = {
    val head = scratch.ownHead
    if (head(2 * key) != stamp) return false
    var i = head(2 * key + 1)
    while (i >= 0) { if (scratch.mrs(i) == mr) return true; i = scratch.next(i) }
    false
  }

  private def record(key: Int, mr: Long): Boolean = {
    scratch.growRecorded(n + 1)
    val head = scratch.ownHead
    scratch.next(n) = if (head(2 * key) == stamp) head(2 * key + 1) else -1
    head(2 * key) = stamp; head(2 * key + 1) = n
    scratch.meta(n) = if ((key & 1) != 0) (key >> 1) | RootInserter.DirOut else key >> 1
    scratch.mrs(n) = mr
    n += 1
    true
  }

  def insertOut(y: Int, mr: Long): Boolean = // PR2, then PR1 = Query(y, root, mr^+)
    rootAid <= aid(y) && !has(2 * y + 1, mr) && !joins(y, true, scratch.inProbe, inMrs, mr) &&
      record(2 * y + 1, mr)

  def insertIn(y: Int, mr: Long): Boolean = // PR2, then PR1 = Query(root, y, mr^+)
    rootAid <= aid(y) && !has(2 * y, mr) && !(y == root && has(2 * root + 1, mr)) &&
      !joins(y, false, scratch.outProbe, outMrs, mr) && record(2 * y, mr)
}

object RootInserter {
  private val DirOut = 1 << 30

  /** Append `root`'s recorded entries to `index` in order, skipping any that
    * a Case-1 join over `index` now derives (only possible when `index` has
    * entries the search's `view` lacked, as in the distributed merge).
    */
  def append(index: RlcIndex, root: Int, meta: Array[Int], mrs: Array[Long], n: Int): Unit = {
    var i = 0
    while (i < n) {
      val y = meta(i) & ~DirOut
      if ((meta(i) & DirOut) != 0) {
        if (!index.caseOneJoin(y, root, mrs(i))) index.addOut(y, root, mrs(i))
      } else if (!index.caseOneJoin(root, y, mrs(i))) index.addIn(y, root, mrs(i))
      i += 1
    }
  }
}
