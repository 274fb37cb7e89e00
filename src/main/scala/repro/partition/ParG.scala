package repro.partition

import repro.core.{Grouping, SetOps}
import repro.partition.graph.{KnnGraph, RecursiveBisection}

/** PAR-G — graph-cut-based partitioning (§4.3.1): build the similarity
  * graph for the workload's k (or δ), then cut it into n balanced parts
  * minimizing crossing edges with [[RecursiveBisection]] (the from-scratch
  * PaToH substitute). Workload-specific by construction: the graph depends
  * on k or δ.
  */
object ParG {

  final case class Config(refinePasses: Int = 4, seed: Long = 71,
                          measure: SetOps.Measure = SetOps.Jaccard)

  /** Partition for a kNN workload with the given k.
    *
    * @param knnOf neighbour oracle — the experiments pass an LES³-backed
    *              (or brute-force) kNN so the graph build mirrors §7.4
    */
  def partitionForKnn(db: collection.IndexedSeq[Array[Int]], nGroups: Int, k: Int,
                      knnOf: Int => Array[Int], cfg: Config = Config()): Grouping = {
    val adj = KnnGraph.fromKnn(db.length, knnOf)
    RecursiveBisection.partition(adj, nGroups,
      RecursiveBisection.Config(refinePasses = cfg.refinePasses, seed = cfg.seed))
  }

  /** Partition for a range workload with the given δ. */
  def partitionForRange(db: collection.IndexedSeq[Array[Int]], nGroups: Int, delta: Double,
                        cfg: Config = Config()): Grouping = {
    val adj = KnnGraph.fromThreshold(db, delta, cfg.measure)
    RecursiveBisection.partition(adj, nGroups,
      RecursiveBisection.Config(refinePasses = cfg.refinePasses, seed = cfg.seed))
  }
}
