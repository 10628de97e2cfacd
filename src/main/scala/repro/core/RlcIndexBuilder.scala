package repro.core

import repro.graph.LabeledGraph

/** Sequential indexing algorithm (paper Algorithm 2): backward + forward
  * eager KBS from every vertex in IN-OUT access order, with pruning rules
  *
  *  - PR1: skip an entry whose k-MR is already derivable from the index
  *    built so far: the root's own entries plus a Case-1 join over the
  *    earlier roots' entries ([[RootInserter]], DESIGN.md §6);
  *  - PR2: skip an entry when the search root has a larger access id than
  *    the visited vertex (the visited vertex's own, earlier search covered
  *    the path);
  *  - PR3: inside kernel-BFS, a pruned insert also prunes the traversal
  *    through that vertex (implemented in [[Kbs]]).
  */
object RlcIndexBuilder {

  /** IN-OUT ordering: vertices sorted by `(|out(v)|+1) * (|in(v)|+1)`
    * descending, ties by vertex id ascending; returns `aid` with
    * `aid(v)` = 1-based rank.
    */
  def accessOrder(g: LabeledGraph): (Array[Int], Array[Int]) = {
    val order = (0 until g.numVertices).toArray
    val score = Array.tabulate(g.numVertices) { v =>
      (g.outDegree(v) + 1).toLong * (g.inDegree(v) + 1)
    }
    val sorted = order.sortWith { (a, b) =>
      val sa = score(a); val sb = score(b)
      if (sa != sb) sa > sb else a < b
    }
    val aid = new Array[Int](g.numVertices)
    var r = 0
    while (r < sorted.length) { aid(sorted(r)) = r + 1; r += 1 }
    (aid, sorted)
  }

  /** Run Algorithm 2's per-root KBS sequentially for the given roots (which
    * must come in access-id order), appending each root's entries to `index`
    * after its search. Also the sequential-head phase of the distributed
    * builder.
    */
  def runRoots(g: LabeledGraph, k: Int, index: RlcIndex, roots: Seq[Int],
               scratch: KbsScratch): Unit =
    roots.foreach { root =>
      val ins = new RootInserter(index, root, scratch)
      Kbs.run(g, root, k, ins, scratch)
      RootInserter.append(index, root, ins.lists, ins.mrs, ins.n)
    }

  /** Build the RLC index for `g` with parameter `k`. */
  def build(g: LabeledGraph, k: Int): RlcIndex = {
    val (aid, order) = accessOrder(g)
    val index = new RlcIndex(g.numVertices, k, aid)
    runRoots(g, k, index, order.toIndexedSeq, new KbsScratch(g.numVertices, k))
    index
  }
}
