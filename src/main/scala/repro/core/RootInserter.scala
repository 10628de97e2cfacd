package repro.core

/** The entry lists a [[RootInserter]] reads of the index built from earlier
  * roots: the live [[RlcIndex]] or its [[FlatRlcIndex]] snapshot. The list
  * with list id `l` (`v` for `L_in(v)`, `|V| + v` for `L_out(v)`, where
  * `|V|` is `aid.length`) is `hops(l)/mrs(l)[from(l), to(l))`, sorted by the
  * hop's access id `aid`.
  */
trait CaseOne {
  def aid: Array[Int]
  def hops(l: Int): Array[Int]
  def mrs(l: Int): Array[Long]
  def from(l: Int): Int
  def to(l: Int): Int
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
  * labeling's root-side table). [[Kbs]] tries each `(vertex, MR)` pair at
  * most once per search, so the entries this search records matter only
  * through the root cycle: `insertIn(root, mr)` fails once the backward
  * search recorded `(root, mr)` in `L_out(root)`. Those MRs are kept in
  * `scratch.cycleMrs`. All of this state lives in `scratch`, stamped by
  * root, so an inserter allocates nothing per visit; one inserter at a
  * time may use a scratch.
  *
  * Kept entries are recorded in `lists` (the list id) and `mrs`, the first
  * `n` slots, in visit order; [[RootInserter.append]] adds them to the
  * index. The arrays belong to `scratch`, so the next inserter on it
  * overwrites them.
  */
final class RootInserter(view: CaseOne, root: Int, scratch: KbsScratch) extends Inserter {
  private val aid     = view.aid
  private val outBase = aid.length // list id of L_out(0): the view's |V|, not the scratch's
  private val rootAid = aid(root)
  private val stamp   = { scratch.rootStamp += 1; scratch.rootStamp }
  private val inMrs   = view.mrs(root)
  private val outMrs  = view.mrs(outBase + root)
  private var cycleN  = 0 // MRs in scratch.cycleMrs
  var n: Int = 0

  load(scratch.inProbe, root)
  load(scratch.outProbe, outBase + root)

  def lists: Array[Int] = scratch.lists
  def mrs: Array[Long]  = scratch.mrs

  /** Point every hop of list `l` in the view at its run of entries. */
  private def load(probe: Array[Int], l: Int): Unit = {
    val hops = view.hops(l)
    val to   = view.to(l)
    var i = view.from(l)
    while (i < to) {
      val h = hops(i)
      var j = i + 1
      while (j < to && hops(j) == h) j += 1
      probe(3 * h) = stamp; probe(3 * h + 1) = i; probe(3 * h + 2) = j
      i = j
    }
  }

  /** Case 1 against the root's own list: does an entry `(x, mr)` of list `l`
    * in the view have `(x, mr)` in the root's list indexed by `probe`?
    */
  private def joins(l: Int, probe: Array[Int], rootMrs: Array[Long], mr: Long): Boolean = {
    val hops = view.hops(l)
    val mrs  = view.mrs(l)
    var i = view.from(l)
    val end = view.to(l)
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

  /** Did the backward search record `(root, mr)` in `L_out(root)`? */
  private def onCycle(mr: Long): Boolean = {
    var i = 0
    while (i < cycleN) { if (scratch.cycleMrs(i) == mr) return true; i += 1 }
    false
  }

  private def record(l: Int, mr: Long): Boolean = {
    scratch.growRecorded(n + 1)
    scratch.lists(n) = l
    scratch.mrs(n) = mr
    n += 1
    if (l == outBase + root) { scratch.growCycle(cycleN + 1); scratch.cycleMrs(cycleN) = mr; cycleN += 1 }
    true
  }

  def insertOut(y: Int, mr: Long): Boolean = // PR2, then PR1 = Query(y, root, mr^+)
    rootAid <= aid(y) && !joins(outBase + y, scratch.inProbe, inMrs, mr) && record(outBase + y, mr)

  def insertIn(y: Int, mr: Long): Boolean = // PR2, then PR1 = Query(root, y, mr^+)
    rootAid <= aid(y) && !(y == root && onCycle(mr)) && !joins(y, scratch.outProbe, outMrs, mr) &&
      record(y, mr)
}

object RootInserter {

  /** Append `root`'s recorded entries to `index` in order, skipping any that
    * a Case-1 join over `index` now derives (only possible when `index` has
    * entries the search's `view` lacked, as in the distributed merge).
    */
  def append(index: RlcIndex, root: Int, lists: Array[Int], mrs: Array[Long], n: Int): Unit = {
    val outBase = index.numVertices
    var i = 0
    while (i < n) {
      val l = lists(i)
      if (l >= outBase) {
        if (!index.caseOneJoin(l - outBase, root, mrs(i))) index.addOut(l - outBase, root, mrs(i))
      } else if (!index.caseOneJoin(root, l, mrs(i))) index.addIn(l, root, mrs(i))
      i += 1
    }
  }
}
