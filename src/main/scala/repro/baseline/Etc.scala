package repro.baseline

import repro.core.{Inserter, Kbs, KbsScratch}
import repro.graph.LabeledGraph

/** Extended transitive closure (paper Sec. VI-a): for every reachable pair
  * `(u, v)`, the set of k-MRs of paths u ⇝ v, stored in a hashmap. Built by
  * a *forward-only* eager KBS from each vertex with *no pruning rules* —
  * exactly the paper's ETC baseline, which is why it only completes on the
  * smallest graph within any reasonable budget.
  */
final class Etc(val k: Int) {
  // (u << 32 | v) -> set of packed MRs
  val pairs = new java.util.HashMap[java.lang.Long, java.util.HashSet[java.lang.Long]]()
  var mrCount: Long = 0L

  def key(u: Int, v: Int): Long = (u.toLong << 32) | (v.toLong & 0xffffffffL)

  def add(u: Int, v: Int, mr: Long): Boolean = {
    var set = pairs.get(key(u, v))
    if (set == null) { set = new java.util.HashSet[java.lang.Long](4); pairs.put(key(u, v), set) }
    val added = set.add(mr)
    if (added) mrCount += 1
    added
  }

  def query(s: Int, t: Int, mr: Long): Boolean = {
    val set = pairs.get(key(s, t))
    set != null && set.contains(mr)
  }

  def pairCount: Long = pairs.size.toLong

  /** Estimated resident size of the hashmap-of-hashsets: ~128 bytes per
    * reachable pair (boxed key + map entry + set header) plus ~40 bytes per
    * recorded MR (boxed long + set node). Stated so Table IV's MB column is
    * re-derivable; the same kind of realistic-JVM estimate the paper's
    * measured footprints reflect.
    */
  def sizeInBytes: Long = pairCount * 128L + mrCount * 40L
  def sizeInMB: Double  = sizeInBytes / 1e6
}

object Etc {

  final class BudgetExceeded extends RuntimeException

  /** Build the ETC, or None if `budgetMs` elapses or `maxMrEntries` is hit
    * first (the bench reports those as the paper's "-").
    */
  def build(g: LabeledGraph, k: Int, budgetMs: Long = -1L,
            maxMrEntries: Long = 500_000_000L): Option[Etc] = {
    val etc      = new Etc(k)
    val scratch  = new KbsScratch(g.numVertices, k)
    val deadline = if (budgetMs < 0) Long.MaxValue else System.nanoTime() + budgetMs * 1_000_000L
    var ops      = 0L

    final class Recorder(var root: Int) extends Inserter {
      def insertOut(y: Int, mr: Long): Boolean =
        throw new IllegalStateException("ETC is forward-only")
      def insertIn(y: Int, mr: Long): Boolean = {
        etc.add(root, y, mr)
        ops += 1
        if ((ops & 0x1fff) == 0 &&
            (System.nanoTime() > deadline || etc.mrCount > maxMrEntries))
          throw new BudgetExceeded
        true // never prune: ETC applies no pruning rules
      }
    }

    val rec = new Recorder(0)
    try {
      var v = 0
      while (v < g.numVertices) {
        rec.root = v
        Kbs.forward(g, v, k, rec, scratch)
        v += 1
      }
      Some(etc)
    } catch { case _: BudgetExceeded => None }
  }
}
