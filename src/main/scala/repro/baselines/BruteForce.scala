package repro.baselines

import repro.core.{Hit, SearchResult, SearchStats, SetOps, SimilarityIndex, TopK}
import repro.io.IOModel
import scala.collection.mutable.ArrayBuffer

/** The brute-force comparator of §7.6: one linear scan of the database per
  * query. In the disk-based setting this is a single sequential scan — the
  * access pattern that makes brute force surprisingly competitive on HDDs
  * (Fig. 13).
  *
  * Unlike the other engines, `range` takes any δ: at δ = 0 it returns every
  * set with its similarity, the one scan the benchmark's oracle
  * (`perfbench.Oracle.scan`) reads every expected answer from.
  */
final class BruteForce(db: collection.IndexedSeq[Array[Int]],
                       measure: SetOps.Measure = SetOps.Jaccard,
                       io: IOModel = IOModel.InMemory) extends SimilarityIndex {

  private val totalBytes: Long = db.iterator.map(s => io.dataBytes(s.length, 1)).sum

  def range(q: Array[Int], delta: Double): SearchResult = {
    SetOps.requireCanonical(q, "range")
    val hits = ArrayBuffer.empty[Hit]
    var sid = 0
    while (sid < db.length) {
      val sim = measure.sim(q, db(sid))
      if (sim >= delta) hits += Hit(sid, sim)
      sid += 1
    }
    SearchResult(hits, SearchStats(db.length, 0, 1, io.sequentialScan(totalBytes)))
  }

  def knn(q: Array[Int], k: Int): SearchResult = {
    SetOps.requireCanonical(q, "knn")
    val top = new TopK(k)
    var sid = 0
    while (sid < db.length) { top.offer(sid, measure.sim(q, db(sid))); sid += 1 }
    SearchResult(top.hits, SearchStats(db.length, 0, 1, io.sequentialScan(totalBytes)))
  }
}
