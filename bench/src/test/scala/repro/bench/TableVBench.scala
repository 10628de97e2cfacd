package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.graph.GraphGen

/** Table V: speed-ups and break-even points of one k=3 RLC index on the
  * WN analog over three engine stand-ins (SysA = Spark iterative-join
  * dataflow, SysB = NFA BFS, SysC = NFA BiBFS) for Q1 `a+`, Q2 `(a∘b)+`,
  * Q3 `(a∘b∘c)+`, and the extended Q4 `a+∘b+` (hybrid index+traversal).
  */
class TableVBench extends SparkSpec {

  test("Table V — RLC index speed-ups over engine stand-ins (k=3)") {
    val (itSec, sizeMB, rows) = Experiments.tableV(spark, GraphGen.lite("WN"))
    println(Experiments.renderT5(itSec, sizeMB, rows))

    rows.foreach { r =>
      for (su <- r.su)
        assert(su > 1.0, s"${r.queryClass}/${r.engine}: index must win (su=$su)")
      assert(r.rlcSec < 1e-2, s"${r.queryClass}: index lookups should be sub-10ms, got ${r.rlcSec}")
    }
    // the paper's headline: the Spark/scan engine (SysA) loses by the most,
    // and Q2/Q3 speed-ups over traversal engines exceed Q1's
    val byKey = rows.map(r => (r.queryClass, r.engine) -> r).toMap
    for (q1 <- byKey.get(("Q1", "SysB")).flatMap(_.su);
         q3 <- byKey.get(("Q3", "SysB")).flatMap(_.su))
      assert(q3 > q1, s"SU should grow with concatenation length: Q1=$q1 Q3=$q3")
  }
}
