package repro.partition.graph

import repro.core.SetOps
import scala.collection.mutable

/** Similarity-graph construction for PAR-G (§4.3.1): a vertex per set and
  * an (undirected) edge to each of its k nearest neighbours (kNN queries)
  * or to every set within distance δ (range queries).
  */
object KnnGraph {

  /** Adjacency lists (deduplicated, symmetric) of the kNN graph.
    *
    * `knnOf(sid)` must return the ids of sid's k nearest neighbours; PAR-G
    * in the paper accelerates this with LES³ itself, and the experiment
    * harness does the same (brute force for small inputs).
    */
  def fromKnn(nSets: Int, knnOf: Int => Array[Int]): Array[Array[Int]] = {
    val adj = Array.fill(nSets)(mutable.TreeSet.empty[Int])
    var sid = 0
    while (sid < nSets) {
      for (nb <- knnOf(sid) if nb != sid) {
        adj(sid) += nb
        adj(nb) += sid
      }
      sid += 1
    }
    adj.map(_.toArray)
  }

  /** The δ-threshold similarity graph, by brute-force pairwise comparison
    * (only used at experiment scale).
    */
  def fromThreshold(db: collection.IndexedSeq[Array[Int]], delta: Double,
                    measure: SetOps.Measure = SetOps.Jaccard): Array[Array[Int]] = {
    val adj = Array.fill(db.length)(mutable.ArrayBuffer.empty[Int])
    for (i <- db.indices; j <- i + 1 until db.length
         if measure.sim(db(i), db(j)) >= delta) {
      adj(i) += j
      adj(j) += i
    }
    adj.map(_.toArray)
  }
}
