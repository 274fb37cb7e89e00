package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.io.IOModel
import repro.partition.L2P

import scala.collection.mutable

/** The distributed LES³ path (per the reproduction directive): the TGM and
  * the learned partitioning expressed as DataFrame operations, with the
  * trained L2P cascade and the TGM broadcast to executors, and search run
  * per partition by the shared verification core ([[GroupStore]]).
  *
  * Data layout: `data` is `(sid: Long, tokens: Array[Int])` with tokens
  * sorted-distinct; `grouped` adds `gid: Int`.
  *
  * A `grouped` object is read once, at its first search: each partition's
  * rows become a persisted [[GroupStore]] that every later search of that
  * object reuses, under any TGM that covers its gids, until the object is
  * unreachable. The stores hold no measure: the TGM owns it, and is
  * broadcast per call, so a TGM written since the last call is honoured.
  * Range and kNN share one driver path: each call runs one job over the
  * stores, collects it and destroys its broadcast before it returns.
  */
object SparkSearch {

  /** Assign every set to its group by broadcasting the trained [[L2P.L2PModel]]
    * and running its inference as a UDF.
    */
  def assignGroups(data: DataFrame, model: L2P.L2PModel): DataFrame = {
    val spark = data.sparkSession
    val bc = spark.sparkContext.broadcast(model)
    val assignUdf = udf { tokens: Seq[Int] => bc.value.assign(tokens.toArray) }
    data.withColumn("gid", assignUdf(col("tokens")))
  }

  /** Build the TGM with one DataFrame aggregation: explode tokens and
    * collect each group's distinct-token set, then add each group's set to
    * the matrix on the driver.
    */
  def buildTGM(grouped: DataFrame, nGroups: Int,
               measure: SetOps.Measure = SetOps.Jaccard): TGM = {
    val tgm = new TGM(nGroups, measure)
    grouped
      .select(col("gid"), explode(col("tokens")).as("t"))
      .groupBy("gid")
      .agg(collect_set(col("t")))
      .collect()
      .foreach(row => tgm.addSet(row.getInt(0), row.getSeq[Int](1).toArray))
    tgm
  }

  /** The stores of every `grouped` searched so far, keyed by the object
    * itself (`Dataset` keeps reference equality): per partition, its sids
    * and the [[GroupStore]] of its rows, a member's id being its position
    * among them. An entry goes when its key is unreachable, and Spark's
    * `ContextCleaner` then unpersists its RDD.
    */
  private val cache = new java.util.WeakHashMap[DataFrame, RDD[(Array[Long], GroupStore)]]

  /** The persisted stores of `grouped`, built at its first search and kept
    * across calls. A partition's store has a block per gid up to its
    * largest, so it serves every TGM with at least that many groups, under
    * any measure. `grouped` is read only then: rows added later are not seen.
    */
  private def stores(grouped: DataFrame): RDD[(Array[Long], GroupStore)] = cache.synchronized {
    Option(cache.get(grouped)).getOrElse {
      import grouped.sparkSession.implicits._
      val rdd = grouped.select(col("sid"), col("tokens"), col("gid")).as[(Long, Array[Int], Int)].rdd
        .mapPartitions { rows =>
          val (sids, sets, gids) = rows.toArray.unzip3
          val grouping = new Grouping(gids, gids.maxOption.fold(1)(_ + 1))
          Iterator((sids, new GroupStore(sets, grouping, IOModel.InMemory)))
        }.persist(StorageLevel.MEMORY_ONLY)
      cache.put(grouped, rdd)
      rdd
    }
  }

  /** The one driver path of both searches. Checks the queries
    * ([[SetOps.requireCanonical]]), broadcasts `(tgm, queries)`, runs
    * `search` for every query in one RDD job over the stores of `grouped`,
    * collects the hits as `(qid, sid, sim)` rows and destroys the
    * broadcast; an empty batch runs no job. A group's bound covers its
    * members in every partition, so each partition's answer is exact over
    * its rows. A TGM with fewer groups than some row's gid fails the job
    * with an `IllegalArgumentException`.
    */
  private def collectHits(grouped: DataFrame, queries: Array[(Long, Array[Int])], tgm: TGM, caller: String)(
      search: (GroupStore, Array[Int], TGM) => Iterable[Hit]): Array[(Long, Long, Double)] = {
    queries.foreach { case (_, q) => SetOps.requireCanonical(q, caller) }
    if (queries.isEmpty) Array.empty
    else {
      val batch = grouped.sparkSession.sparkContext.broadcast((tgm, queries))
      try stores(grouped).mapPartitions { parts =>
        val (t, qs) = batch.value
        parts.flatMap { case (sids, store) =>
          qs.iterator.flatMap { case (qid, q) => search(store, q, t).map(h => (qid, sids(h.sid), h.sim)) }
        }
      }.collect()
      finally batch.destroy()
    }
  }

  /** Distributed range search (Definition 2.2) with the TGM's measure: δ,
    * which must lie in (0, 1] ([[SetOps.requireDelta]]), is checked on the
    * driver, and each partition verifies the groups whose bound reaches δ
    * ([[collectHits]]). Returns `(qid, sid, sim)` with sim ≥ δ as a local
    * `DataFrame`, collected before the call returns, so reading it runs no
    * search again.
    */
  def rangeSearch(grouped: DataFrame, queries: DataFrame, tgm: TGM, delta: Double): DataFrame = {
    import grouped.sparkSession.implicits._
    SetOps.requireDelta(delta, "rangeSearch")
    val qs = queries.select(col("qid"), col("tokens")).as[(Long, Array[Int])].collect()
    collectHits(grouped, qs, tgm, "rangeSearch") { (store, q, t) =>
      val hits = mutable.ArrayBuffer.empty[Hit]
      store.searchRange(q, t, delta, hits)
      hits
    }.toSeq.toDF("qid", "sid", "sim")
  }

  /** Exact distributed kNN (Definition 2.1) in one pass over the stores
    * of `grouped` ([[collectHits]]): each partition returns its exact local
    * top-k per query, and the driver merges them with one [[TopK]] per
    * query. Exact, because the global top-k is a union of local top-ks: a
    * set outside its partition's top-k has at most that partition's
    * kth-best similarity, which is never above the global kth-best. The
    * queries must be canonical, with distinct qids, and k ≥ 1; all are
    * checked on the driver before any job starts. An empty batch gives an
    * empty map. A sid must fit [[Hit]]'s `Int`, else
    * `ArithmeticException`. Returns per-query hits sorted by descending
    * similarity.
    */
  def knnSearch(grouped: DataFrame, queries: Array[(Long, Array[Int])], tgm: TGM,
                k: Int): Map[Long, Array[Hit]] = {
    require(k >= 1, s"kNN needs k >= 1, got k = $k")
    require(queries.map(_._1).distinct.length == queries.length, "knnSearch needs distinct qids")
    val local = collectHits(grouped, queries, tgm, "knnSearch") { (store, q, t) =>
      val top = new TopK(k)
      store.searchKnn(q, t, top)
      top.hits
    }
    val tops = queries.map { case (qid, _) => qid -> new TopK(k) }.toMap
    for ((qid, sid, sim) <- local) tops(qid).offer(Math.toIntExact(sid), sim)
    tops.map { case (qid, top) => qid -> top.hits.toArray }
  }

  /** Distributed brute force (the scale-out comparison point): a full
    * cross join between queries and data with UDF verification.
    */
  def bruteForceRange(data: DataFrame, queries: DataFrame, delta: Double): DataFrame = {
    val jaccard = udf { (a: Seq[Int], b: Seq[Int]) => SetOps.jaccard(a.toArray, b.toArray) }
    broadcast(queries.select(col("qid"), col("tokens").as("qtokens")))
      .crossJoin(data)
      .withColumn("sim", jaccard(col("qtokens"), col("tokens")))
      .filter(col("sim") >= delta)
      .select(col("qid"), col("sid"), col("sim"))
  }
}
