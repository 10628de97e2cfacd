package repro.bench

import repro.SparkSpec
import repro.exp.Experiments
import repro.graph.GraphGen

/** Table IV: indexing time and index size of the RLC index (distributed
  * builder, k=2) vs the extended transitive closure, per lite analog.
  * ETC is attempted only on the smallest graphs (above that it cannot finish
  * within any scaled budget — the paper's "-" rows), with a wall-clock
  * budget. Every built index is spot-checked against online BiBFS.
  *
  * Subset via REPRO_GRAPHS=AD,EP,... (default: all 13).
  */
class TableIVBench extends SparkSpec {

  test("Table IV — RLC vs ETC indexing time and index size (k=2)") {
    val names = sys.env.get("REPRO_GRAPHS")
      .map(_.split(",").map(_.trim).toSeq)
      .getOrElse(GraphGen.liteSuite.map(_.name))
    val cfgs = names.map(GraphGen.lite)

    val rows = Experiments.tableIV(spark, cfgs)
    println(Experiments.renderT4(rows))

    rows.foreach { r =>
      assert(r.mismatches == 0, s"${r.name}: ${r.mismatches} query mismatches vs BiBFS")
      // the paper's central Table IV claims, as shape assertions:
      for (etcIt <- r.etcItSec) assert(r.rlcItSec < etcIt,
        s"${r.name}: RLC indexing must beat ETC (${r.rlcItSec} vs $etcIt)")
      for (etcIs <- r.etcSizeMB) assert(r.rlcSizeMB < etcIs,
        s"${r.name}: RLC index must be smaller than ETC ($r)")
    }
    // ETC completes only on the quarter-scale anchor (the paper's shape:
    // ETC finished only on its smallest graph, after 37 minutes)
    rows.find(_.name == "ADq").foreach { adq =>
      assert(adq.etcOutcome == "ok", s"ETC should complete on the ADq anchor: $adq")
      for (etcIt <- adq.etcItSec) assert(adq.rlcItSec < etcIt / 5,
        s"RLC should beat ETC by a wide margin on ADq: $adq")
    }
  }
}
