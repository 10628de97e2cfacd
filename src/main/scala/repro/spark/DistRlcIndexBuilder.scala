package repro.spark

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.graph.LabeledGraph

/** Distributed construction of the RLC index.
  *
  * The sequential Algorithm 2 is inherently ordered: PR1 queries the index
  * produced by all earlier searches. We parallelize it in two steps. First
  * a sequential head of the highest-ranked roots runs on the driver
  * ([[RlcIndexBuilder.runRoots]]). Then every other root's backward+forward
  * KBS runs as a Spark task, in one job, with the builders' one insert
  * protocol, a [[RootInserter]] whose Case-1 view is a frozen broadcast
  * snapshot of the head's index; the driver appends each root's recorded
  * entries in access-id order with [[RootInserter.append]], whose Case-1
  * re-check against the live index restores the condensed property.
  *
  * Correctness (DESIGN.md §6): the frozen snapshot is a subset of the live
  * index, so in-flight PR1/PR3 prune strictly *less* than the sequential
  * algorithm — tasks emit a superset of candidates, never lose a path — and
  * every in-flight prune was justified by entries that remain in the final
  * index.
  *
  * The head is where almost all mutual PR1 pruning happens: hubs searched
  * against the same frozen snapshot cannot prune each other (on the WN
  * analog, 38M candidates for the first 256 roots run in parallel, against
  * 46K with a sequential head).
  */
object DistRlcIndexBuilder {

  def build(spark: SparkSession, g: LabeledGraph, k: Int): RlcIndex = {
    val sc = spark.sparkContext
    val (aid, order) = RlcIndexBuilder.accessOrder(g)
    val index = new RlcIndex(g.numVertices, k, aid)

    val head = math.min(1024, g.numVertices / 64)
    RlcIndexBuilder.runRoots(g, k, index, order.take(head).toIndexedSeq,
      new KbsScratch(g.numVertices, k))

    val rest    = order.drop(head)
    val bcGraph = sc.broadcast(g)
    val bcSnap  = sc.broadcast(FlatRlcIndex.fromIndex(index))
    val slices  = math.max(1, math.min(rest.length, sc.defaultParallelism * 4))
    try {
      // parallelize + collect preserve root order, so roots merge in access-id order
      sc.parallelize(rest.toIndexedSeq, slices)
        .mapPartitions { roots =>
          val graph = bcGraph.value
          searchRoots(graph, k, bcSnap.value, roots, new KbsScratch(graph.numVertices, k))
        }
        .collect()
        .foreach { case (root, lists, mrs) => RootInserter.append(index, root, lists, mrs, lists.length) }
    } finally { bcSnap.destroy(); bcGraph.destroy() }
    index
  }

  /** One task's work: search `roots` in order against the frozen `view`,
    * all with one `scratch`; each root's recorded entries, copied out of it.
    */
  private[spark] def searchRoots(g: LabeledGraph, k: Int, view: CaseOne, roots: Iterator[Int],
                                 scratch: KbsScratch): Iterator[(Int, Array[Int], Array[Long])] =
    roots.map { root =>
      val ins = new RootInserter(view, root, scratch)
      Kbs.run(g, root, k, ins, scratch)
      (root, java.util.Arrays.copyOf(ins.lists, ins.n), java.util.Arrays.copyOf(ins.mrs, ins.n))
    }
}
