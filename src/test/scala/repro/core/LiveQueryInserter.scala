package repro.core

import repro.graph.LabeledGraph

/** Algorithm 2's insert protocol as the paper states it, for differential
  * tests of [[RootInserter]]: PR2 by access id, PR1 as Algorithm 1
  * (`RlcIndex.query`, both Case-2 lookups and the Case-1 join) on the live
  * index, and every kept entry appended at once.
  */
final class LiveQueryInserter(index: RlcIndex) extends Inserter {
  private val aid = index.aid
  var root: Int = -1

  def insertOut(y: Int, mr: Long): Boolean =
    aid(root) <= aid(y) && !index.query(y, root, mr) && { index.addOut(y, root, mr); true }

  def insertIn(y: Int, mr: Long): Boolean =
    aid(root) <= aid(y) && !index.query(root, y, mr) && { index.addIn(y, root, mr); true }
}

object LiveQueryInserter {

  /** The RLC index of `g`, every root searched in access order with live appends. */
  def build(g: LabeledGraph, k: Int): RlcIndex = {
    val (aid, order) = RlcIndexBuilder.accessOrder(g)
    val index   = new RlcIndex(g.numVertices, k, aid)
    val ins     = new LiveQueryInserter(index)
    val scratch = new KbsScratch(g.numVertices, k)
    order.foreach { root => ins.root = root; Kbs.run(g, root, k, ins, scratch) }
    index
  }
}
