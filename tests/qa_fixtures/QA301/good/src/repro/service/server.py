"""Awaits stay outside the absorb/charge critical section."""


class Handler:
    async def handle_report(self, ledger, campaign, batch):
        await self.authenticate(batch)
        campaign.validate_batch(batch.reports)
        if ledger.rejected_users(batch.multiplicity, batch.epsilon):
            return False
        campaign.absorb_shard(batch.reports, batch.round)
        ledger.charge_batch(batch.multiplicity, batch.epsilon)
        await self.checkpoint()
        return True

    async def handle_steps(self, ingest, ledger, registry, envelope):
        batch = ingest.check(registry, envelope)
        await self.authenticate(batch)
        multiplicity = batch.multiplicity
        ingest.admit(ledger, batch, multiplicity)
        ingest.commit(ledger, batch, multiplicity)
        await self.checkpoint()
        return True

    async def authenticate(self, batch):
        return batch

    async def checkpoint(self):
        return None
