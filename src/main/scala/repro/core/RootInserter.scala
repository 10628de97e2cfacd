package repro.core

/** The Case-1 join of Def. 4 — all a [[RootInserter]] reads of the index
  * built from earlier roots: the live [[RlcIndex]] or its flat snapshot.
  */
trait CaseOne {
  def caseOneJoin(s: Int, t: Int, mr: Long): Boolean
}

/** Algorithm 2's insert protocol for one search root, shared by every
  * builder: PR2 by access id, then PR1 as the root's own entries (Case 2)
  * plus a Case-1 join over `view`, which must hold exactly the entries of
  * the roots before `root` (DESIGN.md §6). Kept entries are recorded in
  * `meta` (the vertex, with bit 30 set for `L_out`) and `mrs`, in visit
  * order; [[RootInserter.append]] adds them to the index.
  */
final class RootInserter(aid: Array[Int], view: CaseOne, root: Int) extends Inserter {
  private val own = new java.util.HashMap[Integer, java.util.HashSet[java.lang.Long]]()
  var meta: Array[Int] = new Array[Int](16)
  var mrs: Array[Long] = new Array[Long](16)
  var n: Int = 0

  private def has(key: Int, mr: Long): Boolean = {
    val s = own.get(key); s != null && s.contains(mr)
  }
  private def record(key: Int, mr: Long): Boolean = {
    own.computeIfAbsent(key, _ => new java.util.HashSet[java.lang.Long](4)).add(mr)
    if (n == meta.length) {
      meta = java.util.Arrays.copyOf(meta, n * 2)
      mrs = java.util.Arrays.copyOf(mrs, n * 2)
    }
    meta(n) = key; mrs(n) = mr; n += 1
    true
  }

  def insertOut(y: Int, mr: Long): Boolean = // PR2, then PR1 = Query(y, root, mr^+)
    aid(root) <= aid(y) && !has(y | RootInserter.DirOut, mr) && !view.caseOneJoin(y, root, mr) &&
      record(y | RootInserter.DirOut, mr)

  def insertIn(y: Int, mr: Long): Boolean = // PR2, then PR1 = Query(root, y, mr^+)
    aid(root) <= aid(y) && !has(y, mr) && !(y == root && has(root | RootInserter.DirOut, mr)) &&
      !view.caseOneJoin(root, y, mr) && record(y, mr)
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
